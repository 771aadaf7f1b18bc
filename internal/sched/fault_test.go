package sched_test

import (
	"errors"
	"testing"

	"pjs/internal/check"
	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/obs"
	"pjs/internal/sched"
	"pjs/internal/sched/fcfs"
	"pjs/internal/sched/gang"
	"pjs/internal/sched/ss"
	"pjs/internal/sim"
	"pjs/internal/workload"
)

// idleSched accepts arrivals and never starts anything, stranding every
// job — the deadlock condition RunChecked must surface as an error.
type idleSched struct {
	sched.IgnoreFailures
}

func (idleSched) Name() string           { return "idle" }
func (idleSched) Init(*sched.Env)        {}
func (idleSched) TickInterval() int64    { return 0 }
func (idleSched) OnArrival(*job.Job)     {}
func (idleSched) OnCompletion(*job.Job)  {}
func (idleSched) OnSuspendDone(*job.Job) {}
func (idleSched) OnTick()                {}

func TestRunCheckedInvalidTrace(t *testing.T) {
	tr := &workload.Trace{Name: "bad", Procs: 2, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 4), // wider than the machine
	}}
	if _, err := sched.RunChecked(tr, fcfs.New(), sched.Options{}); err == nil {
		t.Fatal("RunChecked accepted a job wider than the machine")
	}
	tr = &workload.Trace{Name: "empty", Procs: 2}
	if _, err := sched.RunChecked(tr, fcfs.New(), sched.Options{}); err == nil {
		t.Fatal("RunChecked accepted an empty trace")
	}
}

func TestRunCheckedMaxStepsError(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 2, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 1),
		job.New(2, 10, 100, 100, 1),
	}}
	_, err := sched.RunChecked(tr, fcfs.New(), sched.Options{MaxSteps: 1})
	if !errors.Is(err, sim.ErrMaxSteps) {
		t.Fatalf("err = %v, want sim.ErrMaxSteps", err)
	}
}

func TestRunCheckedDeadlockError(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 2, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 1),
	}}
	_, err := sched.RunChecked(tr, idleSched{}, sched.Options{})
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("err = %v, want sim.ErrDeadlock", err)
	}
}

func TestRunCheckedUnfinishableUnderPermanentFailure(t *testing.T) {
	// A width-2 job on a 2-processor machine: the first permanent
	// failure (MTTR ≤ 0) makes it impossible to ever dispatch again.
	tr := &workload.Trace{Name: "t", Procs: 2, Jobs: []*job.Job{
		job.New(1, 0, 1_000_000_000, 1_000_000_000, 2),
	}}
	_, err := sched.RunChecked(tr, fcfs.New(), sched.Options{
		MaxSteps: 1_000_000,
		Faults:   fault.Config{MTBF: 100, MTTR: 0, Seed: 1},
	})
	if !errors.Is(err, sched.ErrUnfinishable) {
		t.Fatalf("err = %v, want sched.ErrUnfinishable", err)
	}
}

// TestFailureKillsRequeuesAndFinishes drives FCFS through transient
// failures on a synthetic workload: every job must still finish, each
// fail-kill must surface as a resubmission, and the audit log must
// replay cleanly (down processors never dispatched onto, kills legal,
// work conservation intact across restarts).
func TestFailureKillsRequeuesAndFinishes(t *testing.T) {
	tr := workload.Generate(workload.SDSC(), workload.GenOptions{Jobs: 120, Seed: 3})
	counters := obs.NewCounters("FCFS", tr.Procs)
	res, err := sched.RunChecked(tr, fcfs.New(), sched.Options{
		Audit:    true,
		MaxSteps: 50_000_000,
		Observer: counters,
		Faults:   fault.Config{MTBF: 40 * 3600, MTTR: 2 * 3600, Seed: 5},
	})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if res.Failures == 0 || res.Repairs == 0 {
		t.Fatalf("expected injected failures and repairs, got %d/%d", res.Failures, res.Repairs)
	}
	resubmits := 0
	for _, j := range res.Jobs {
		resubmits += j.Resubmits
	}
	if resubmits != res.FailKills+res.ImagesLost {
		t.Errorf("resubmits = %d, want FailKills+ImagesLost = %d+%d",
			resubmits, res.FailKills, res.ImagesLost)
	}
	if counters.Tally != res.Tally {
		t.Errorf("counters tally %+v, result tally %+v", counters.Tally, res.Tally)
	}
	if err := check.Check(res.Audit, check.Options{ZeroOverhead: true}); err != nil {
		t.Errorf("audit replay: %v", err)
	}
}

// TestStrandedImageInvalidation uses gang scheduling on a 1-processor
// machine with two jobs: one is always suspended while the other runs,
// so a processor failure both kills the runner and strands the sleeper's
// memory image. Both displacement paths must fire and both jobs must
// still finish after repairs.
func TestStrandedImageInvalidation(t *testing.T) {
	// Failure kills discard ALL accumulated work, so MTBF must comfortably
	// exceed the serial workload (2×5000 s) or the run thrashes forever.
	tr := &workload.Trace{Name: "t", Procs: 1, Jobs: []*job.Job{
		job.New(1, 0, 5_000, 5_000, 1),
		job.New(2, 0, 5_000, 5_000, 1),
	}}
	res, err := sched.RunChecked(tr, gang.New(gang.Config{Quantum: 600}), sched.Options{
		Audit:    true,
		MaxSteps: 10_000_000,
		Faults:   fault.Config{MTBF: 40_000, MTTR: 500, Seed: 3},
	})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if res.FailKills == 0 {
		t.Error("no fail-kills despite failures on a saturated processor")
	}
	if res.ImagesLost == 0 {
		t.Error("no stranded images despite failures under a suspended job")
	}
	if res.LostWorkSeconds <= 0 {
		t.Errorf("lost work = %d, want > 0", res.LostWorkSeconds)
	}
	if err := check.Check(res.Audit, check.Options{ZeroOverhead: true}); err != nil {
		t.Errorf("audit replay: %v", err)
	}
}

// TestPreemptivePolicyUnderFailures runs SS (claims, pending starts,
// suspend/resume) with the disk overhead model and transient failures:
// the full displacement surface — aborted pending claims, kills during
// suspension writes, stranded images — must keep the audit log legal.
func TestPreemptivePolicyUnderFailures(t *testing.T) {
	tr := workload.Generate(workload.KTH(), workload.GenOptions{Jobs: 150, Seed: 9})
	res, err := sched.RunChecked(tr, ss.New(ss.Config{SF: 2}), sched.Options{
		Audit:    true,
		MaxSteps: 50_000_000,
		Faults:   fault.Config{MTBF: 2000 * 3600, MTTR: 3600, Seed: 13},
	})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if res.Failures == 0 {
		t.Fatal("expected injected failures")
	}
	if err := check.Check(res.Audit, check.Options{ZeroOverhead: true}); err != nil {
		t.Errorf("audit replay: %v", err)
	}
}
