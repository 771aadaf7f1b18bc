// Package fcfs implements first-come-first-served scheduling without
// backfilling — the strawman of Section II whose utilization suffers
// from fragmentation: if the head of the queue does not fit, everything
// behind it waits even when processors are idle.
package fcfs

import (
	"pjs/internal/job"
	"pjs/internal/sched"
)

// Sched is the FCFS policy.
type Sched struct {
	env   *sched.Env
	queue []*job.Job
}

// New returns an FCFS scheduler.
func New() *Sched { return &Sched{} }

// Name implements sched.Scheduler.
func (s *Sched) Name() string { return "FCFS" }

// Init implements sched.Scheduler.
func (s *Sched) Init(env *sched.Env) { s.env = env }

// TickInterval implements sched.Scheduler: FCFS is purely event-driven.
func (s *Sched) TickInterval() int64 { return 0 }

// OnArrival implements sched.Scheduler.
func (s *Sched) OnArrival(j *job.Job) {
	s.queue = append(s.queue, j)
	s.tryStart()
}

// OnCompletion implements sched.Scheduler.
func (s *Sched) OnCompletion(*job.Job) { s.tryStart() }

// OnSuspendDone implements sched.Scheduler; FCFS never suspends.
func (s *Sched) OnSuspendDone(*job.Job) {}

// OnTick implements sched.Scheduler.
func (s *Sched) OnTick() {}

// OnFailure implements sched.Scheduler: displaced jobs rejoin the queue
// at their submission-order position (FCFS has no other state to fix)
// and the head is retried against the surviving machine.
func (s *Sched) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		s.queue = sched.InsertBySubmit(s.queue, j)
	}
	s.tryStart()
}

// OnRepair implements sched.Scheduler: recovered capacity may unblock
// the head of the queue.
func (s *Sched) OnRepair(int) { s.tryStart() }

// tryStart launches jobs strictly in arrival order until the head no
// longer fits.
func (s *Sched) tryStart() {
	for len(s.queue) > 0 && s.env.StartFresh(s.queue[0]) {
		s.queue = s.queue[1:]
	}
}
