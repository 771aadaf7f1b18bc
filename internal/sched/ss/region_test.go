package ss

import (
	"slices"
	"testing"

	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sched"
)

// regionReuse wraps passMaximal and counts the jobs that start again on
// a different set before the next tick: a job displaced by a failure
// that a pass restarts, and under migration a suspended job that
// resumes elsewhere. The driver writes every set of a job into the same
// region, so such a restart rewrites the set that the kept state's
// records of the job's last incarnation may still name.
type regionReuse struct {
	*passMaximal
	// old holds, until the next tick, a copy of the set each displaced
	// or newly suspended job held.
	old map[*job.Job][]int
	// restarted and migrated count the rewrites seen, by kind.
	restarted, migrated int
}

// note remembers the set j holds or last held: its region, which a
// failure leaves intact beyond the truncated length.
func (r *regionReuse) note(j *job.Job) {
	r.old[j] = slices.Clone(j.ProcSet[:j.Procs])
}

// count books each remembered job that is running on another set now.
func (r *regionReuse) count() {
	for _, j := range r.env.Running() {
		old, ok := r.old[j]
		if !ok || slices.Equal(old, j.ProcSet) {
			continue
		}
		if j.Suspensions > 0 && j.Resubmits == 0 {
			r.migrated++
		} else {
			r.restarted++
		}
		delete(r.old, j)
	}
}

func (r *regionReuse) OnTick() {
	clear(r.old)
	r.passMaximal.OnTick()
}

func (r *regionReuse) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		r.note(j)
	}
	r.passMaximal.OnFailure(p, requeued)
	r.count()
}

func (r *regionReuse) OnSuspendDone(j *job.Job) {
	if r.cfg.Migration {
		r.note(j)
	}
	r.passMaximal.OnSuspendDone(j)
	r.count()
}

func (r *regionReuse) OnArrival(j *job.Job)    { r.passMaximal.OnArrival(j); r.count() }
func (r *regionReuse) OnCompletion(j *job.Job) { r.passMaximal.OnCompletion(j); r.count() }
func (r *regionReuse) OnRepair(p int)          { r.passMaximal.OnRepair(p); r.count() }

// TestRestartInRegionBeforeTick runs SS:2, TSS:2 and the migratable
// SS:2 under the processor failures of the faults-ns workload (MTBF
// 500 h, MTTR 2 h), where displaced jobs restart in their own regions
// before the next tick, and checks at every delivered tick every kept
// record against a rebuild from nothing and the horizon against
// refHorizon (passMaximal). A record that still
// named a rewritten set would apply the new processors in place of the
// old ones and fail those checks, or panic. The test fails when no
// such restart, or under migration no such resume, happened.
func TestRestartInRegionBeforeTick(t *testing.T) {
	tr := ctcAtLoad(1000, 1, 2)
	configs := []struct {
		name string
		cfg  Config
	}{
		{"ss:2", Config{SF: 2}},
		{"tss:2", Config{SF: 2, Limits: &AdaptiveLimits{}}},
		{"ssmig:2", Config{SF: 2, Migration: true}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			r := &regionReuse{passMaximal: &passMaximal{Sched: New(c.cfg), t: t}, old: map[*job.Job][]int{}}
			_, err := sched.RunChecked(tr, r, sched.Options{
				Overhead: overhead.Disk{},
				MaxSteps: 20_000_000,
				Faults:   fault.Config{MTBF: 500 * 3600, MTTR: 2 * 3600, Seed: 17},
			})
			if err != nil {
				t.Fatalf("RunChecked: %v", err)
			}
			if r.restarted == 0 {
				t.Fatal("no displaced job restarted on another set before the next tick")
			}
			if c.cfg.Migration && r.migrated == 0 {
				t.Fatal("no suspended job resumed on another set before the next tick")
			}
			t.Logf("%d ticks checked; %d displaced jobs restarted and %d migrated on another set before the next tick",
				r.ticks, r.restarted, r.migrated)
		})
	}
}
