package sched_test

import (
	"testing"

	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// scriptSched is a minimal policy harness for driving Env primitives
// from tests: it starts the first jobs directly and preempts both for
// the last arrival.
type scriptSched struct {
	sched.IgnoreFailures
	env     *sched.Env
	started []*job.Job
}

func (s *scriptSched) Name() string        { return "script" }
func (s *scriptSched) Init(env *sched.Env) { s.env = env }
func (s *scriptSched) TickInterval() int64 { return 0 }

func (s *scriptSched) OnArrival(j *job.Job) {
	if s.env.StartFresh(j) {
		s.started = append(s.started, j)
		return
	}
	// The wide newcomer preempts everything that runs.
	var victims []*job.Job
	for _, r := range s.started {
		if r.State == job.Running {
			victims = append(victims, r)
		}
	}
	claim := s.env.Cluster.ListFreeUnclaimed(j.Procs, nil)
	for _, v := range victims {
		for _, p := range v.ProcSet {
			if len(claim) == j.Procs {
				break
			}
			claim = append(claim, p)
		}
	}
	s.env.PreemptAndStart(j, victims, claim)
	s.started = append(s.started, j)
}

func (s *scriptSched) OnCompletion(j *job.Job) {
	// Resume anyone whose set freed up.
	for _, r := range s.started {
		if r.State == job.Suspended && s.env.Resume(r) {
			continue
		}
	}
}

func (s *scriptSched) OnSuspendDone(j *job.Job) {}
func (s *scriptSched) OnTick()                  {}

// A pending preemptive start must wait for the LAST of its victims'
// suspension writes: with victim writes of 50 s and 500 s, the
// preemptor starts 500 s after the decision.
func TestPendingStartWaitsForSlowestVictim(t *testing.T) {
	a := job.New(1, 0, 10000, 10000, 2)
	b := job.New(2, 0, 10000, 10000, 2)
	c := job.New(3, 100, 100, 100, 4)
	a.MemPerProc = 100 << 20  // 50 s write at 2 MB/s
	b.MemPerProc = 1000 << 20 // 500 s write
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{a, b, c}}
	res := sched.Run(tr, &scriptSched{}, sched.Options{
		Overhead: overhead.Disk{}, MaxSteps: 100_000,
	})
	byID := map[int]*job.Job{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	if byID[3].FirstStart != 600 {
		t.Errorf("preemptor start = %d, want 600 (decision 100 + slowest write 500)", byID[3].FirstStart)
	}
	// Victims resume after the preemptor completes (700) plus their
	// own restart reads.
	if byID[1].FinishTime != 700+50+(10000-100) {
		t.Errorf("jobA finish = %d, want %d", byID[1].FinishTime, 700+50+10000-100)
	}
	if byID[2].FinishTime != 700+500+(10000-100) {
		t.Errorf("jobB finish = %d, want %d", byID[2].FinishTime, 700+500+10000-100)
	}
}

// With zero overhead the same scenario hands processors over instantly.
func TestPendingStartInstantWithZeroOverhead(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 10000, 10000, 2),
		job.New(2, 0, 10000, 10000, 2),
		job.New(3, 100, 100, 100, 4),
	}}
	res := sched.Run(tr, &scriptSched{}, sched.Options{MaxSteps: 100_000})
	for _, j := range res.Jobs {
		if j.ID == 3 && j.FirstStart != 100 {
			t.Errorf("preemptor start = %d, want 100", j.FirstStart)
		}
	}
}
