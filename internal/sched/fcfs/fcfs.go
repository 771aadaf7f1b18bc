// Package fcfs implements first-come-first-served scheduling without
// backfilling — the strawman of Section II whose utilization suffers
// from fragmentation: if the head of the queue does not fit, everything
// behind it waits even when processors are idle.
package fcfs

import (
	"pjs/internal/job"
	"pjs/internal/sched"
)

// Sched is the FCFS policy. It serves the driver's wait queue
// (sched.Env.Idle), which is in FCFS order.
type Sched struct {
	env *sched.Env
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
func (s *Sched) OnArrival(*job.Job) { s.tryStart() }

// OnCompletion implements sched.Scheduler.
func (s *Sched) OnCompletion(*job.Job) { s.tryStart() }

// OnSuspendDone implements sched.Scheduler; FCFS never suspends.
func (s *Sched) OnSuspendDone(*job.Job) {}

// OnTick implements sched.Scheduler.
func (s *Sched) OnTick() {}

// OnFailure implements sched.Scheduler: the displaced jobs are back in
// the queue (FCFS has no state of its own to fix), and the head is
// retried against the surviving machine.
func (s *Sched) OnFailure(int, []*job.Job) { s.tryStart() }

// OnRepair implements sched.Scheduler: recovered capacity may unblock
// the head of the queue.
func (s *Sched) OnRepair(int) { s.tryStart() }

// tryStart launches jobs strictly in queue order until the head no
// longer fits.
func (s *Sched) tryStart() {
	for {
		q := s.env.Idle()
		if len(q) == 0 || !s.env.StartFresh(q[0]) {
			return
		}
	}
}
