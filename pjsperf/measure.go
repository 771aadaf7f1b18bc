package main

import (
	"container/heap"
	"math"
	"slices"
	"sort"

	"pjs/internal/perf"
)

// timing is where runs read time: the clock every span uses, and the
// calibration kernels, which tests replace with a constant.
type timing struct {
	clock     perf.Clock
	calibrate func() float64
}

// realTiming is the monotonic clock and the calibration kernels.
func realTiming() timing {
	c := perf.Monotonic()
	buf := make([]int64, 1<<20)
	return timing{clock: c, calibrate: func() float64 { return calibrate(c, buf) }}
}

// calibRef is the calibration reading reference seconds are scaled to,
// near the readings on the shared Xeon VM the committed baselines come
// from.
const calibRef = 0.1

// calibEvery is how long a calibration reading is used before the next
// one is taken, in ns. The machines this runs on slow down and recover
// over seconds, so one reading per pass would leave most of a pass
// uncorrected.
const calibEvery = 2e9

// calibrate times two fixed kernels, best of three each, and returns the
// geometric mean of their times in seconds. One sorts a pseudo-random
// slice of 2^20 int64s held in buf; the other pushes 2^17 freshly
// allocated records with pseudo-random keys through a binary heap of
// pointers and pops them, which loads the allocator and the caches the
// way the simulator does. Cells report their times scaled by calibRef
// over the latest reading, so a spell in which a shared machine runs
// everything slower cancels out. On a shared two-core Xeon VM, over ten
// seeds of each workload, both kernels together left an interquartile
// range of wall_s of 2.3–5.1% of the median, the sort alone 2.5–7.9%,
// and raw times 5.7–12.5%.
func calibrate(clock perf.Clock, buf []int64) float64 {
	sortNs, heapNs := int64(math.MaxInt64), int64(math.MaxInt64)
	for k := 0; k < 3; k++ {
		x := uint64(1)
		for i := range buf {
			buf[i] = int64(splitmix64(&x) >> 1)
		}
		start := clock()
		slices.Sort(buf)
		sortNs = min(sortNs, clock()-start)
	}
	for k := 0; k < 3; k++ {
		start := clock()
		heapKernel()
		heapNs = min(heapNs, clock()-start)
	}
	return math.Sqrt(sec(sortNs) * sec(heapNs))
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := (*x ^ (*x >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// record is the heap kernel's element: a key, padding and a pointer, so
// that it is the size of a small simulator record and the collector
// scans it.
type record struct {
	key  int64
	_    [3]int64
	next *record
}

type recordHeap []*record

func (h recordHeap) Len() int           { return len(h) }
func (h recordHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h recordHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *recordHeap) Push(x any)        { *h = append(*h, x.(*record)) }
func (h *recordHeap) Pop() any {
	old := *h
	r := old[len(old)-1]
	*h = old[:len(old)-1]
	return r
}

// heapKernel pushes 2^17 new records through a binary heap and pops
// them all.
func heapKernel() {
	x := uint64(3)
	h := &recordHeap{}
	for i := 0; i < 1<<17; i++ {
		heap.Push(h, &record{key: int64(splitmix64(&x) >> 1)})
	}
	for h.Len() > 0 {
		heap.Pop(h)
	}
}

// calibrator holds the latest calibration reading.
type calibrator struct {
	tm      timing
	reading float64 // s
	at      int64
}

// scale returns the factor that converts the next cell's times to
// reference seconds, taking a new reading first once calibEvery has
// passed since the last one; fresh says whether it did.
func (c *calibrator) scale() (scale float64, fresh bool) {
	if c.reading == 0 || c.tm.clock()-c.at >= calibEvery {
		c.reading = c.tm.calibrate()
		c.at = c.tm.clock()
		fresh = true
	}
	return calibRef / c.reading, fresh
}

// schedule runs rounds of passes, one pass of every run per round, so
// that a slow spell of the machine hits every workload alike. A run takes
// part in a round while it has made fewer than minPasses passes, or
// while another pass, at its mean pass time so far, would keep the time
// its own passes took within budget nanoseconds. traced(i) says whether
// a run's i-th pass is traced.
func schedule(runs []*runner, minPasses int, budget int64, traced func(i int) bool) {
	clock := runs[0].tm.clock
	spent := make([]int64, len(runs))
	for i := 0; ; i++ {
		ran := false
		for k, r := range runs {
			if i >= minPasses && spent[k]+spent[k]/int64(i) > budget {
				continue
			}
			start := clock()
			r.pass(traced(i))
			spent[k] += clock() - start
			ran = true
		}
		if !ran {
			return
		}
	}
}

// samples returns the end-to-end metrics of every untraced pass, by
// metric name, in pass order; times are in reference seconds.
func (r *runner) samples() map[string][]float64 {
	out := map[string][]float64{}
	for _, ps := range r.untraced {
		out["wall_s"] = append(out["wall_s"], ps.wall)
		out["setup_s"] = append(out["setup_s"], ps.setup)
		out["jobs_per_s"] = append(out["jobs_per_s"], float64(ps.jobs)/ps.sim)
		out["alloc_mb"] = append(out["alloc_mb"], float64(ps.alloc)/1e6)
		out["live_mb"] = append(out["live_mb"], float64(ps.live)/1e6)
	}
	return out
}

// layers returns the per-layer metrics: shares and counts from the
// traced passes, allocation figures and the tracing overhead against
// the untraced ones. Shares are medians over passes; counts repeat
// exactly, so the last pass's are reported.
func (r *runner) layers() map[string]float64 {
	out := map[string]float64{}
	med := func(passes []pass, f func(ps pass) float64) float64 {
		v := make([]float64, len(passes))
		for i, ps := range passes {
			v[i] = f(ps)
		}
		return median(v)
	}
	share := func(f func(ps pass) int64) func(ps pass) float64 {
		return func(ps pass) float64 { return float64(f(ps)) / float64(ps.rawWall) }
	}
	tr := r.traced
	for l := layer(0); l < numLayers; l++ {
		l := l
		out[layerMetric[l]] = med(tr, share(func(ps pass) int64 { return ps.tr.self[l] }))
	}
	out["trace.wall_s"] = med(tr, func(ps pass) float64 { return ps.wall })
	out["trace.overhead_frac"] = med(tr, func(ps pass) float64 { return ps.sim })/
		med(r.untraced, func(ps pass) float64 { return ps.sim }) - 1
	out["probe.queue_scan_frac"] = med(tr, share(func(ps pass) int64 { return ps.probe[perf.PhaseQueueScan].Nanos }))
	out["probe.backfill_window_frac"] = med(tr, share(func(ps pass) int64 { return ps.probe[perf.PhaseBackfillWindow].Nanos }))
	out["probe.victim_select_frac"] = med(tr, share(func(ps pass) int64 { return ps.probe[perf.PhaseVictimSelect].Nanos }))
	out["emit.self_frac"] = 0
	if r.w.observed {
		out["emit.self_frac"] = med(tr, share(func(ps pass) int64 {
			return ps.rawSim - ps.unobservedSim - ps.tr.self[lSink]
		}))
	}
	out["runtime.gc_cpu_frac"] = med(tr, func(ps pass) float64 { return ps.gcCPU / sec(ps.rawWall) })

	last := tr[len(tr)-1]
	for l, name := range map[layer]string{
		lArrival: "policy.arrival_calls", lCompletion: "policy.completion_calls",
		lSuspendDone: "policy.suspend_done_calls", lTick: "policy.tick_calls",
		lFailure: "policy.failure_calls", lRepair: "policy.repair_calls", lSink: "obs.events",
	} {
		out[name] = float64(last.tr.calls[l])
	}
	out["probe.victim_select_calls"] = float64(last.probe[perf.PhaseVictimSelect].Calls)
	out["check.entries"] = float64(last.auditEntries)
	out["sim.events"] = float64(last.events)
	out["sched.suspensions"] = float64(last.suspensions)
	out["sched.resubmits"] = float64(last.resubmits)
	out["fault.failures"] = float64(last.failures)

	un := r.untraced
	out["simulate.allocs_per_event"] = med(un, func(ps pass) float64 { return float64(ps.simMallocs) / float64(ps.events) })
	out["simulate.alloc_mb"] = med(un, func(ps pass) float64 { return float64(ps.simAlloc) / 1e6 })
	out["setup.alloc_mb"] = med(un, func(ps pass) float64 { return float64(ps.setupAlloc) / 1e6 })
	return out
}

func sec(ns int64) float64 { return float64(ns) / 1e9 }

// quartiles returns the first quartile, median and third quartile of v
// by the exclusive method of Python's statistics.quantiles(v, n=4), so
// the spreads printed here are the ones other tools compute.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// median returns the middle of the values (the mean of the central pair
// for an even count); 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
