package main

import (
	"strconv"

	"pjs/internal/fault"
)

// workload is one named set of simulations the benchmark times end to
// end. Every pass runs the same cells, reps × loads × policies of them,
// each on its own trace. The traces are drawn from the run's seed, so a
// seed fixes the inputs exactly.
type workload struct {
	name string
	// why is the one-line reason the workload exists; BENCHMARK.json
	// carries the same text.
	why string
	// golden is the hex digest of every cell's outputs at seed 1.
	golden string

	model string
	jobs  int
	// reps repeats every (load, policy) pair on fresh traces. The work
	// of one 1000-job CTC trace under SS (bytes allocated, which tracks
	// its time) swings with its seed by a coefficient of variation of
	// 0.18; the sum over n independent traces swings √n times less, which
	// keeps runs at different seeds within the bounds.
	reps  int
	loads []float64
	specs []string
	// swf serialises each cell's trace to SWF bytes before timing; the
	// timed set-up then parses those bytes instead of generating.
	swf bool
	// mtbfHours > 0 injects processor failures (MTTR 2 h, fault seed =
	// trace seed).
	mtbfHours int64
	// observed runs each cell the way `pexp -verify -counters` does:
	// Disk overhead, audit log, Counters+Sampler observers, invariant
	// replay, and the counter and time-series renders.
	observed bool
}

// workloads is the benchmark's workload table. Each one loads a
// different layer of the simulator, and each bypasses what another one
// stresses; see the package documentation for the layer each should
// move.
var workloads = []workload{
	{
		// The paper's headline policy. Nearly all time is SS OnTick: the
		// per-tick SortByXFactor of the idle queue plus victim selection.
		// Work on the tick path (sorting, kinetic ordering) shows here.
		// Load 2 (an offered load of 1.1) keeps the queue long enough
		// that the tick dominates, and of the sizes and loads tried,
		// 1000-job traces at load 2 swing least from seed to seed per
		// second of run: half as much as 2000-job traces at load 1.5.
		name:   "preempt-ctc",
		why:    "SS:2 on 120 CTC traces of 1000 jobs at load 2: time is the per-tick xfactor sort and victim selection of the preemption routine",
		golden: "75c22d45d521e273",
		model:  "CTC", jobs: 1000, reps: 120, loads: []float64{2}, specs: []string{"ss:2"},
	},
	{
		// No ticks and no preemption: the engine heap, driver bookkeeping
		// and EASY scans over long traces, with a real SWF parse as
		// set-up. None of the SS code runs.
		name:   "backfill-swf",
		why:    "NS (EASY) on 8 SDSC traces of 50k jobs parsed from SWF: engine heap, driver and backfill scans, no ticks or preemption",
		golden: "c7afd1fd436e6a0b",
		model:  "SDSC", jobs: 50000, reps: 8, loads: []float64{1.2}, specs: []string{"ns"},
		swf: true,
	},
	{
		// Failure handling under a fault model that converges (MTBF
		// 500 h): Env.HandleProcFail scans every job per failure and the
		// policy's OnFailure rebuilds. No suspensions happen.
		name:   "faults-ns",
		why:    "NS on 12 CTC traces with processor failures (MTBF 500 h, MTTR 2 h): failure handling and requeues, no suspensions",
		golden: "cec3e2755f265dd6",
		model:  "CTC", jobs: 15000, reps: 12, loads: []float64{1.0}, specs: []string{"ns"},
		mtbfHours: 500,
	},
	{
		// The same layers in a sweep shaped like `pexp -verify -counters`:
		// observer emission, audit append, invariant replay, summaries and
		// renders, which the other three never run.
		name:   "observed-sweep",
		why:    "SDSC sweep of NS, SS:2 and IS over three loads with audit, observers, invariant check and renders, like pexp -verify -counters",
		golden: "65bcd8dbbead89b3",
		model:  "SDSC", jobs: 1000, reps: 12, loads: []float64{1.0, 1.2, 1.4}, specs: []string{"ns", "ss:2", "is"},
		observed: true,
	},
}

// cell is one simulation of a pass: its own trace, at one load, under
// one policy.
type cell struct {
	spec   string
	load   float64
	seed   int64 // trace seed
	faults fault.Config
}

// traceSeed derives the seed of a workload's i-th trace from the run's
// seed; distinct runs' traces never share a seed.
func traceSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// cells lists the workload's cells for one seed in execution order. Every
// cell simulates a trace of its own: cells sharing a trace would swing
// together from seed to seed, and independent ones average out.
func (w *workload) cells(seed int64) []cell {
	var out []cell
	for r := 0; r < w.reps; r++ {
		for _, load := range w.loads {
			for _, spec := range w.specs {
				c := cell{spec: spec, load: load, seed: traceSeed(seed, len(out))}
				if w.mtbfHours > 0 {
					c.faults = fault.Config{MTBF: w.mtbfHours * 3600, MTTR: 2 * 3600, Seed: c.seed}
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// name identifies the cell in digests and diagnostics.
func (c cell) name(model string) string {
	return c.spec + "/" + model + "/" + strconv.FormatInt(c.seed, 10) + "/load" + strconv.FormatFloat(c.load, 'g', -1, 64)
}

// metric describes one reported number. Bound applies to end-to-end
// metrics only: the share of the baseline median by which the metric may
// worsen before a comparison calls it a regression.
type metric struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the simulator sees, reported per
// workload as the median over the untraced passes.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "jobs_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.1},
	{name: "live_mb", unit: "MB", better: "lower", bound: 0.05},
}

// perLayer are the traced run's metrics. The *_frac times are exclusive
// (self) shares of the traced wall time and sum to 1 with
// bench.glue_frac; probe.* are inclusive subsets of policy.*, and
// emit.self_frac is derived from a rerun, so neither is in that sum.
var perLayer = []metric{
	{name: "trace.wall_s", unit: "s"},
	{name: "trace.overhead_frac", unit: "frac"},
	{name: "workload.generate_frac", unit: "frac"},
	{name: "workload.parse_frac", unit: "frac"},
	{name: "workload.scale_frac", unit: "frac"},
	{name: "driver.self_frac", unit: "frac"},
	{name: "policy.arrival_frac", unit: "frac"},
	{name: "policy.completion_frac", unit: "frac"},
	{name: "policy.suspend_done_frac", unit: "frac"},
	{name: "policy.tick_frac", unit: "frac"},
	{name: "policy.failure_frac", unit: "frac"},
	{name: "policy.repair_frac", unit: "frac"},
	{name: "obs.sink_frac", unit: "frac"},
	{name: "check.replay_frac", unit: "frac"},
	{name: "metrics.summarize_frac", unit: "frac"},
	{name: "report.render_frac", unit: "frac"},
	{name: "bench.glue_frac", unit: "frac"},
	{name: "probe.queue_scan_frac", unit: "frac"},
	{name: "probe.backfill_window_frac", unit: "frac"},
	{name: "probe.victim_select_frac", unit: "frac"},
	{name: "emit.self_frac", unit: "frac"},
	{name: "runtime.gc_cpu_frac", unit: "frac"},
	{name: "policy.arrival_calls", unit: "count"},
	{name: "policy.completion_calls", unit: "count"},
	{name: "policy.suspend_done_calls", unit: "count"},
	{name: "policy.tick_calls", unit: "count"},
	{name: "policy.failure_calls", unit: "count"},
	{name: "policy.repair_calls", unit: "count"},
	{name: "probe.victim_select_calls", unit: "count"},
	{name: "obs.events", unit: "count"},
	{name: "check.entries", unit: "count"},
	{name: "sim.events", unit: "count"},
	{name: "sched.suspensions", unit: "count"},
	{name: "sched.resubmits", unit: "count"},
	{name: "fault.failures", unit: "count"},
	{name: "simulate.allocs_per_event", unit: "allocs/event"},
	{name: "simulate.alloc_mb", unit: "MB"},
	{name: "setup.alloc_mb", unit: "MB"},
}
