package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	rtmetrics "runtime/metrics"

	"pjs"
	"pjs/internal/check"
	"pjs/internal/job"
	"pjs/internal/metrics"
	"pjs/internal/obs"
	"pjs/internal/overhead"
	"pjs/internal/perf"
	"pjs/internal/report"
	"pjs/internal/sched"
	wl "pjs/internal/workload"
)

// runner is one workload measured at one seed: the prepared inputs, the
// passes measured so far, and the first pass's outputs, which every
// later pass must reproduce.
type runner struct {
	w     workload
	model wl.Model
	seed  int64
	cells []cell
	swf   [][]byte // per cell, serialised before timing (swf workloads)
	tm    timing
	cal   calibrator
	rt    []rtmetrics.Sample

	ref       []outcome
	digest    uint64
	attempted int
	failed    int
	errs      []string

	untraced, traced []pass
}

// outcome is what a cell must reproduce in every pass.
type outcome struct {
	digest uint64
	events int64
	set    bool
}

// pass is one run of every cell of a workload. Its times are summed over
// the cells, each cell's scaled to reference seconds by the calibration
// reading taken last before the cell began.
type pass struct {
	wall, setup, sim float64   // reference seconds
	rawWall, rawSim  int64     // ns as measured
	calib            []float64 // s, the calibration readings taken during the pass
	jobs             int64     // jobs simulated
	alloc            uint64
	setupAlloc       uint64
	simAlloc         uint64
	simMallocs       uint64
	live             int64
	gcCPU            float64 // s

	events, suspensions, resubmits, failures, auditEntries int64

	tr            *tracer
	probe         perf.Stats
	unobservedSim int64 // traced observed passes: ns of simulation rerun without audit or observers
}

// newRun prepares a workload's inputs for one seed. The SWF bytes of a
// parse workload are produced here, outside every timed region.
func newRun(w workload, seed int64, tm timing) (*runner, error) {
	m, ok := wl.ModelByName(w.model)
	if !ok {
		return nil, fmt.Errorf("workload %s: unknown model %q", w.name, w.model)
	}
	cells := w.cells(seed)
	r := &runner{w: w, model: m, seed: seed, cells: cells, ref: make([]outcome, len(cells)), tm: tm,
		cal: calibrator{tm: tm},
		rt: []rtmetrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/gc/heap/live:bytes"},
		}}
	if w.swf {
		for _, c := range cells {
			var b bytes.Buffer
			t := wl.Generate(m, wl.GenOptions{Jobs: w.jobs, Seed: c.seed})
			if err := wl.WriteSWF(&b, t); err != nil {
				return nil, fmt.Errorf("workload %s: serialise trace: %w", w.name, err)
			}
			r.swf = append(r.swf, b.Bytes())
		}
	}
	return r, nil
}

// runtimeStats is one reading of the runtime counters the passes use.
type runtimeStats struct {
	allocBytes, allocObjects uint64
	gcCPU                    float64
	live                     uint64
}

func (r *runner) readRuntime() runtimeStats {
	rtmetrics.Read(r.rt)
	return runtimeStats{
		allocBytes:   r.rt[0].Value.Uint64(),
		allocObjects: r.rt[1].Value.Uint64(),
		gcCPU:        r.rt[2].Value.Float64(),
		live:         r.rt[3].Value.Uint64(),
	}
}

// pass runs every cell once and checks each against the first pass.
// Only the pipeline — set-up, simulation, check, summary and render —
// is timed; calibration and digests happen outside the cell spans.
func (r *runner) pass(traced bool) pass {
	tr := newTracer(r.tm.clock)
	ps := pass{tr: tr}
	var probe *perf.Probe
	var rerun *tracer
	if traced {
		probe = perf.NewProbe(r.tm.clock)
		rerun = newTracer(r.tm.clock)
	}
	runtime.GC()
	base := r.readRuntime()
	results := make([]*sched.Result, 0, len(r.cells))
	for i, c := range r.cells {
		name := c.name(r.w.model)
		scale, fresh := r.cal.scale()
		if fresh {
			ps.calib = append(ps.calib, r.cal.reading)
		}
		wall0, sim0, setup0 := tr.total[lCell], tr.total[lSim], tr.setupTotal()
		tr.begin(lCell)
		a0 := r.readRuntime()
		t, err := r.input(tr, i, c)
		if err == nil {
			// Exactly the load factor times the model's nominal offered
			// load. Scaling by the factor alone leaves each trace the
			// load its draw happened to have, and SS's time grows
			// steeply with it: exact scaling cut the seed-to-seed
			// variation (CV) of the SS time of 56 2000-job CTC traces at
			// load 1.5 from 6.7% to 2.4%.
			tr.begin(lScale)
			t = t.ScaleLoad(c.load * r.model.OfferedLoad / t.OfferedLoad())
			tr.end()
		}
		a1 := r.readRuntime()
		var res *sched.Result
		var summary string
		if err == nil {
			res, summary, err = r.simulate(tr, probe, c, t, &ps)
		}
		a2 := r.readRuntime()
		tr.end()
		ps.wall += scale * sec(tr.total[lCell]-wall0)
		ps.sim += scale * sec(tr.total[lSim]-sim0)
		ps.setup += scale * sec(tr.setupTotal()-setup0)

		ps.setupAlloc += a1.allocBytes - a0.allocBytes
		ps.alloc += a2.allocBytes - a0.allocBytes
		if err == nil && traced && r.w.observed {
			r.rerun(rerun, c, t)
		}
		r.attempted++
		if err == nil {
			err = r.verify(i, name, res, summary)
		}
		if err != nil {
			r.failed++
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		results = append(results, res)
		ps.jobs += int64(len(res.Jobs))
		ps.events += res.Events
		ps.suspensions += int64(res.Suspensions)
		ps.failures += int64(res.Failures)
		for _, j := range res.Jobs {
			ps.resubmits += int64(j.Resubmits)
		}
		if res.Audit != nil {
			ps.auditEntries += int64(len(res.Audit.Entries))
		}
	}
	end := r.readRuntime()
	ps.gcCPU = end.gcCPU - base.gcCPU
	runtime.GC()
	ps.live = int64(r.readRuntime().live) - int64(base.live)
	runtime.KeepAlive(results)

	ps.rawWall = tr.total[lCell]
	ps.rawSim = tr.total[lSim]
	ps.probe = probe.Snapshot()
	if rerun != nil {
		ps.unobservedSim = rerun.total[lSim]
	}
	if traced {
		r.traced = append(r.traced, ps)
	} else {
		r.untraced = append(r.untraced, ps)
	}
	return ps
}

// input produces the i-th cell's trace: generated from its seed, or
// parsed from the SWF bytes prepared for it.
func (r *runner) input(tr *tracer, i int, c cell) (*wl.Trace, error) {
	if r.w.swf {
		tr.begin(lParse)
		defer tr.end()
		return wl.ReadSWF(bytes.NewReader(r.swf[i]), r.w.model)
	}
	tr.begin(lGenerate)
	defer tr.end()
	return wl.Generate(r.model, wl.GenOptions{Jobs: r.w.jobs, Seed: c.seed}), nil
}

// options builds the cell's simulation options; observed cells audit
// and feed the Counters and Sampler sinks.
func (r *runner) options(c cell) sched.Options {
	opt := sched.Options{Faults: c.faults}
	if r.w.observed {
		opt.Overhead = overhead.Disk{}
		opt.Audit = true
	}
	return opt
}

// simulate runs the cell's simulation, invariant check, summary and
// render, each in its own span. A non-nil probe marks a traced pass:
// the policy's hooks and the observer deliveries get spans too.
func (r *runner) simulate(tr *tracer, probe *perf.Probe, c cell, t *wl.Trace, ps *pass) (*sched.Result, string, error) {
	s, err := pjs.NewScheduler(c.spec)
	if err != nil {
		return nil, "", err
	}
	opt := r.options(c)
	opt.Probe = probe
	var counters *obs.Counters
	var sampler *obs.Sampler
	if r.w.observed {
		counters = obs.NewCounters(s.Name(), t.Procs)
		sampler = obs.NewSampler(t.Procs)
		opt.Observer = obs.NewFanOut(counters, sampler)
	}
	if probe != nil {
		s = tracedPolicy{Scheduler: s, t: tr}
		if opt.Observer != nil {
			opt.Observer = tracedObserver{o: opt.Observer, t: tr}
		}
	}
	m0 := r.readRuntime()
	tr.begin(lSim)
	res, err := sched.RunChecked(t, s, opt)
	tr.end()
	m1 := r.readRuntime()
	ps.simAlloc += m1.allocBytes - m0.allocBytes
	ps.simMallocs += m1.allocObjects - m0.allocObjects
	if err != nil {
		return nil, "", err
	}
	if res.Audit != nil {
		tr.begin(lCheck)
		err = check.Check(res.Audit, check.Options{ZeroOverhead: opt.Overhead == nil})
		tr.end()
		if err != nil {
			return nil, "", fmt.Errorf("invariant check: %w", err)
		}
	}
	tr.begin(lSummarize)
	sum := metrics.FromResult(res, metrics.All)
	tr.end()

	tr.begin(lRender)
	defer tr.end()
	summary := summaryTable(sum).Render()
	if counters != nil {
		var b bytes.Buffer
		b.WriteString(obs.CountersTable("engine counters", []obs.Counters{counters.Snapshot()}).Render())
		if err := sampler.WriteCSV(&b); err != nil {
			return nil, "", fmt.Errorf("render time series: %w", err)
		}
	}
	return res, summary, nil
}

// rerun simulates an observed cell again, traced the same way but with
// the audit log and the observers off, on its own tracer: the
// difference to the observed simulation is the cost of emission.
func (r *runner) rerun(tr *tracer, c cell, t *wl.Trace) {
	s, err := pjs.NewScheduler(c.spec)
	if err != nil {
		return
	}
	opt := r.options(c)
	opt.Audit = false
	tr.begin(lSim)
	_, _ = sched.RunChecked(t, tracedPolicy{Scheduler: s, t: tr}, opt) // the observed run of the same cell was checked
	tr.end()
}

// verify checks a cell against the first pass that ran it cleanly,
// or records it as that reference.
func (r *runner) verify(i int, name string, res *sched.Result, summary string) error {
	o := outcome{digest: cellDigest(name, res, summary), events: res.Events, set: true}
	want := r.ref[i]
	if !want.set {
		r.ref[i] = o
		r.digest = mixDigest(r.digest, o.digest, i)
		return nil
	}
	if o.digest != want.digest {
		return fmt.Errorf("digest %016x differs from the first pass's %016x", o.digest, want.digest)
	}
	if o.events != want.events {
		return fmt.Errorf("event count %d drifted from the first pass's %d", o.events, want.events)
	}
	return nil
}

// cellDigest is FNV-64a over the cell's name, each job's schedule, the
// result's fault and I/O tallies, the summary render and, on audited
// cells, the audit log. The event count is left out on purpose: a
// simulator that skips idle ticks produces the same schedule in fewer
// events and stays correct.
func cellDigest(name string, res *sched.Result, summary string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	io.WriteString(h, name)
	for _, j := range res.Jobs {
		put(int64(j.ID))
		put(j.FirstStart)
		put(j.FinishTime)
		put(int64(j.Suspensions))
		put(int64(j.Resubmits))
		put(int64(j.Kills))
	}
	for _, v := range []int{res.Suspensions, res.Failures, res.Repairs, res.FailKills, res.ImagesLost,
		res.IORetries, res.IOExhaustions, res.IODegradations, res.IORestores} {
		put(int64(v))
	}
	put(res.LostWorkSeconds)
	io.WriteString(h, summary)
	if res.Audit != nil {
		io.WriteString(h, res.Audit.String())
	}
	return h.Sum64()
}

// mixDigest folds the i-th cell digest into the workload digest.
func mixDigest(acc, d uint64, i int) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], acc)
	binary.LittleEndian.PutUint64(buf[8:], d)
	binary.LittleEndian.PutUint64(buf[16:], uint64(i))
	h.Write(buf[:])
	return h.Sum64()
}

// summaryTable is the per-category table psim prints for a run.
func summaryTable(sum *metrics.Summary) *report.Table {
	cols := []string{"count", "mean sd", "median sd", "p95 sd", "worst sd",
		"mean tat", "worst tat", "mean wait", "suspensions"}
	cats := job.AllCategories()
	rows := make([]string, 0, len(cats)+1)
	for _, c := range cats {
		rows = append(rows, c.String())
	}
	rows = append(rows, "overall")
	t := report.NewTable("per-category metrics (Table I categories)", rows, cols)
	for i := range rows {
		c := sum.Overall
		if i < len(cats) {
			c = sum.Cat(cats[i])
		}
		if c.Count == 0 {
			continue
		}
		for k, v := range []float64{float64(c.Count), c.MeanSlowdown, c.MedianSlowdown, c.P95Slowdown,
			c.WorstSlowdown, c.MeanTurnaround, c.WorstTurnaround, c.MeanWait, float64(c.Suspensions)} {
			t.Set(i, k, v)
		}
	}
	return t
}
