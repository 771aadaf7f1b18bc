package experiment

import (
	"fmt"

	"pjs/internal/fault"
	"pjs/internal/metrics"
	"pjs/internal/report"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// registerFailureSweep adds the failure-rate sensitivity study: the
// paper evaluates an always-healthy machine, so this extension asks how
// gracefully the non-preemptive baseline (NS) and Selective Suspension
// degrade when processors fail and repair. Failed processors kill their
// running job (work since the last fresh start is lost, the job is
// requeued) and strand the memory images of jobs suspended on them —
// preemptive policies therefore carry extra exposure: every suspended
// job is a hostage to the processors holding its image.
func registerFailureSweep() {
	register("failures", "Failure-rate sweep: scheduling under processor faults (extension)",
		func(r *Runner) Renderable {
			return Group{
				failureTable(r, NS()),
				failureTable(r, SS(2)),
			}
		})
}

// faultSweepSeed fixes the injected fault schedule so pexp output is
// reproducible run to run (the determinism CI smoke diffs two runs).
const faultSweepSeed = 101

// sweepPoints are the per-processor MTBF points in hours; 0 is the
// fault-free baseline. MTTR is held at 2 h. The points stay well above
// job runtimes: below that, every failure discards all accumulated
// work and the machine thrashes instead of degrading.
var sweepPoints = []int64{0, 4000, 1000, 250}

// failureTable sweeps one scheme across the MTBF points.
func failureTable(r *Runner, sc Scheme) Renderable {
	rows := make([]string, len(sweepPoints))
	opts := make([]sched.Options, len(sweepPoints))
	for i, m := range sweepPoints {
		rows[i] = "no failures"
		if m > 0 {
			rows[i] = fmt.Sprintf("MTBF %d h", m)
			opts[i].Faults = fault.Config{MTBF: m * 3600, MTTR: 2 * 3600, Seed: faultSweepSeed}
		}
	}
	return sweepTable(r, sc, fmt.Sprintf("failure-rate sweep: %s (SDSC, MTTR 2 h)", sc.Label),
		fmt.Sprintf("per-processor exponential fail/repair, fault seed %d, jobs=%d", faultSweepSeed, r.Config().Jobs),
		rows, []string{"failures", "fail-kills", "images lost", "resubmits", "lost work h"}, opts,
		func(res *sched.Result, resubmits int) []float64 {
			return []float64{float64(res.Failures), float64(res.FailKills), float64(res.ImagesLost),
				float64(resubmits), float64(res.LostWorkSeconds) / 3600}
		})
}

// sweepTable runs sc on the SDSC trace once per row, under opts[i], and
// fills the row with the overall mean and worst slowdown, utilization %
// and the extra columns. A point that cannot finish (thrash, step
// limit) ends the sweep with its error instead of aborting the suite.
func sweepTable(r *Runner, sc Scheme, title, note string, rows, extra []string, opts []sched.Options,
	cells func(res *sched.Result, resubmits int) []float64) Renderable {
	t := report.NewTable(title, rows, append([]string{"mean sd", "worst sd", "util %"}, extra...))
	tk := traceKey{"SDSC", workload.EstimateAccurate, 100}
	tr := r.Trace(tk.model, tk.est, tk.loadPct)
	for i, opt := range opts {
		res, err := r.run(tr, sc.make(r, tk), sc.Label+" "+rows[i], opt)
		if err != nil {
			return Text(fmt.Sprintf("%s\n  %s: %v\n", title, rows[i], err))
		}
		sum := metrics.FromResult(res, metrics.All)
		resubmits := 0
		for _, j := range res.Jobs {
			resubmits += j.Resubmits
		}
		t.Set(i, 0, sum.Overall.MeanSlowdown)
		t.Set(i, 1, sum.Overall.WorstSlowdown)
		t.Set(i, 2, 100*res.Utilization)
		for c, v := range cells(res, resubmits) {
			t.Set(i, 3+c, v)
		}
	}
	t.Note = note
	return t
}
