package sched_test

import (
	"strings"
	"testing"

	"pjs/internal/job"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// panicProbe is a scheduler that performs one illegal Env call inside
// OnArrival so the driver's guard rails can be tested.
type panicProbe struct {
	sched.IgnoreFailures
	env *sched.Env
	do  func(env *sched.Env, j *job.Job)
}

func (p *panicProbe) Name() string             { return "probe" }
func (p *panicProbe) Init(env *sched.Env)      { p.env = env }
func (p *panicProbe) TickInterval() int64      { return 0 }
func (p *panicProbe) OnArrival(j *job.Job)     { p.do(p.env, j) }
func (p *panicProbe) OnCompletion(j *job.Job)  {}
func (p *panicProbe) OnSuspendDone(j *job.Job) {}
func (p *panicProbe) OnTick()                  {}

func mustPanic(t *testing.T, name string, do func(env *sched.Env, j *job.Job)) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 2),
	}}
	sched.Run(tr, &panicProbe{do: do}, sched.Options{MaxSteps: 1000})
}

func TestEnvGuardRails(t *testing.T) {
	mustPanic(t, "resume of queued job", func(env *sched.Env, j *job.Job) {
		env.Resume(j)
	})
	mustPanic(t, "resume-anywhere of queued job", func(env *sched.Env, j *job.Job) {
		env.ResumeAnywhere(j)
	})
	mustPanic(t, "kill of queued job", func(env *sched.Env, j *job.Job) {
		env.Kill(j)
	})
	mustPanic(t, "suspend of queued job", func(env *sched.Env, j *job.Job) {
		env.Suspend(j)
	})
	mustPanic(t, "double start", func(env *sched.Env, j *job.Job) {
		env.StartFresh(j)
		env.StartFresh(j)
	})
	mustPanic(t, "wrong claim size", func(env *sched.Env, j *job.Job) {
		env.PreemptAndStart(j, nil, []int{0}) // j.Procs == 2
	})
	mustPanic(t, "preempt-and-start of running job", func(env *sched.Env, j *job.Job) {
		env.StartFresh(j)
		env.PreemptAndStart(j, nil, []int{2, 3})
	})
}

// A scheduler that never starts anything: the driver must detect the
// stuck simulation rather than return quietly.
func TestRunDetectsUnfinishedJobs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected deadlock panic")
		}
	}()
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 2),
	}}
	probe := &panicProbe{do: func(*sched.Env, *job.Job) {}} // ignore arrivals
	sched.Run(tr, probe, sched.Options{MaxSteps: 1000})
}

func TestJobByIDAndPendingCount(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(42, 0, 10, 10, 1),
	}}
	probe := &panicProbe{do: func(env *sched.Env, j *job.Job) {
		if env.JobByID(42) != j {
			t.Error("JobByID lookup failed")
		}
		if env.JobByID(99) != nil {
			t.Error("unknown id should be nil")
		}
		for p := 0; p < env.Cluster.Size(); p++ {
			if env.Cluster.Claimant(p) != -1 {
				t.Errorf("processor %d is claimed; no pending starts expected", p)
			}
		}
		env.StartFresh(j)
	}}
	res := sched.Run(tr, probe, sched.Options{MaxSteps: 1000})
	if res.Jobs[0].FinishTime != 10 {
		t.Errorf("finish = %d", res.Jobs[0].FinishTime)
	}
}

// TestJobByIDOutOfIDOrder looks every job up by ID in a trace whose IDs
// are not in submit order, where the driver searches a sorted copy, and
// checks that of two reused IDs the error names the one whose first job
// comes first.
func TestJobByIDOutOfIDOrder(t *testing.T) {
	ids := []int{30, 10, 20, 5}
	tr := &workload.Trace{Name: "t", Procs: 4}
	for i, id := range ids {
		tr.Jobs = append(tr.Jobs, job.New(id, int64(i), 10, 10, 1))
	}
	probe := &panicProbe{do: func(env *sched.Env, j *job.Job) {
		for _, id := range ids {
			if got := env.JobByID(id); got == nil || got.ID != id {
				t.Errorf("JobByID(%d) = %v", id, got)
			}
		}
		for _, id := range []int{0, 7, 31} {
			if got := env.JobByID(id); got != nil {
				t.Errorf("JobByID(%d) = %v, want nil", id, got)
			}
		}
		env.StartFresh(j)
	}}
	sched.Run(tr, probe, sched.Options{MaxSteps: 1000})

	dup := &workload.Trace{Name: "dup", Procs: 4}
	for i, id := range []int{5, 3, 9, 3, 5} {
		dup.Jobs = append(dup.Jobs, job.New(id, int64(i), 10, 10, 1))
	}
	_, err := sched.RunChecked(dup, &panicProbe{do: func(env *sched.Env, j *job.Job) { env.StartFresh(j) }}, sched.Options{})
	if err == nil || !strings.Contains(err.Error(), "more than one job with ID 5") {
		t.Errorf("RunChecked error %v, want one naming duplicate ID 5", err)
	}
}
