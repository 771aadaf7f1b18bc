package sched_test

import (
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
