package experiment

import (
	"fmt"

	"pjs/internal/fault"
	"pjs/internal/overhead"
	"pjs/internal/sched"
)

// registerTransientSweep adds the transient-I/O sensitivity study: the
// paper assumes suspend-image writes and restart-image reads always
// succeed, so this extension asks how the preemptive policies degrade
// when those I/O operations fail transiently. Each failure costs a
// virtual-time backoff and retry; past the attempt cap the job is
// killed and requeued from scratch; and processors that fail repeatedly
// are degraded out of the victim pool, pushing SS toward pure
// backfilling and starving IS of preemption targets.
func registerTransientSweep() {
	register("transient", "Transient-I/O sweep: suspend/restart under flaky disks (extension)",
		func(r *Runner) Renderable {
			return Group{
				transientTable(r, SS(2)),
				transientTable(r, IS()),
			}
		})
}

// transientSweepSeed fixes the injected I/O fault schedule so pexp
// output is reproducible run to run.
const transientSweepSeed = 101

// transientPoints are the per-operation failure probabilities swept
// (applied to writes and reads alike); 0 is the fault-free baseline.
var transientPoints = []float64{0, 0.05, 0.2, 0.5}

// transientTable sweeps one scheme across the failure-probability
// points under the paper's disk overhead model (without it the I/O
// being injected against would be instantaneous).
func transientTable(r *Runner, sc Scheme) Renderable {
	rows := make([]string, len(transientPoints))
	opts := make([]sched.Options, len(transientPoints))
	for i, p := range transientPoints {
		rows[i] = "no faults"
		opts[i].Overhead = overhead.Disk{}
		if p > 0 {
			rows[i] = fmt.Sprintf("fail p=%.2f", p)
			opts[i].Transient = fault.TransientConfig{WriteFailProb: p, ReadFailProb: p, Seed: transientSweepSeed}
		}
	}
	return sweepTable(r, sc, fmt.Sprintf("transient-I/O sweep: %s (SDSC, disk overhead)", sc.Label),
		fmt.Sprintf("per-processor transient write/read faults, I/O seed %d, jobs=%d", transientSweepSeed, r.Config().Jobs),
		rows, []string{"io retries", "io exhausted", "degradations", "resubmits"}, opts,
		func(res *sched.Result, resubmits int) []float64 {
			return []float64{float64(res.IORetries), float64(res.IOExhaustions), float64(res.IODegradations),
				float64(resubmits)}
		})
}
