// Package easy implements aggressive (EASY) backfilling — the paper's
// non-preemptive "NS" baseline (Section II-A-2). The job at the head of
// the FCFS queue receives a reservation at the earliest time enough
// processors are expected to be free; any other queued job may start now
// if it does not delay that reservation, i.e. if it terminates by the
// head's scheduled start ("shadow time") or uses only processors left
// over at that start ("extra nodes").
package easy

import (
	"pjs/internal/job"
	"pjs/internal/perf"
	"pjs/internal/sched"
)

// Sched is the aggressive-backfilling policy.
type Sched struct {
	env   *sched.Env
	queue []*job.Job
	// running lists the started jobs in release order, each under the
	// ProjectedEnd it had at its start. That end cannot change while the
	// job is listed: EASY never suspends, so every start is fresh with
	// PendingRead 0, and ExtendRead is only ever called on the retried
	// restart read of a resumed job.
	running sched.Releases
}

// New returns an EASY backfilling scheduler.
func New() *Sched { return &Sched{} }

// Name implements sched.Scheduler. The paper labels this baseline
// "No Suspension".
func (s *Sched) Name() string { return "NS" }

// Init implements sched.Scheduler.
func (s *Sched) Init(env *sched.Env) { s.env = env }

// TickInterval implements sched.Scheduler: purely event-driven.
func (s *Sched) TickInterval() int64 { return 0 }

// OnArrival implements sched.Scheduler. Every other hook ends in a full
// schedule, so the queue ahead of j already holds no job that can
// start: its head does not fit, and nothing behind it passes the
// backfill test. Free processors and the release list have not changed
// since, and a later now only makes the shadow-time test harder. So
// the pass is run only when j itself may start.
func (s *Sched) OnArrival(j *job.Job) {
	s.queue = append(s.queue, j)
	if len(s.queue) > 1 && !s.mayBackfill(j) {
		return
	}
	s.schedule()
}

// mayBackfill reports whether queued job j passes the backfill test
// against the reservation of the head, which does not fit.
func (s *Sched) mayBackfill(j *job.Job) bool {
	if j.Procs > s.env.Cluster.FreeUnclaimed() {
		return false
	}
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseQueueScan, span)
	shadow, extra := s.shadow(s.queue[0])
	return s.backfills(j, s.env.Now(), shadow, extra)
}

// OnCompletion implements sched.Scheduler.
func (s *Sched) OnCompletion(j *job.Job) {
	s.running.Remove(j, j.ProjectedEnd())
	s.schedule()
}

// OnSuspendDone implements sched.Scheduler; EASY never suspends.
func (s *Sched) OnSuspendDone(*job.Job) {}

// OnTick implements sched.Scheduler.
func (s *Sched) OnTick() {}

// OnFailure implements sched.Scheduler: displaced jobs rejoin the queue
// at their submission-order position and the whole schedule (head
// reservation included) is recomputed against the surviving machine.
func (s *Sched) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		s.running.Remove(j, j.ProjectedEnd())
		if !sched.Contains(s.queue, j) {
			s.queue = sched.InsertBySubmit(s.queue, j)
		}
	}
	s.schedule()
}

// OnRepair implements sched.Scheduler: recovered capacity may admit the
// head or open new backfill holes.
func (s *Sched) OnRepair(int) { s.schedule() }

// start launches j and tracks it.
func (s *Sched) start(j *job.Job) bool {
	if !s.env.StartFresh(j) {
		return false
	}
	s.running.Insert(j, j.ProjectedEnd())
	return true
}

// schedule starts queue heads while they fit, then backfills.
func (s *Sched) schedule() {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseQueueScan, span)
	for {
		// Start from the head while possible.
		for len(s.queue) > 0 && s.start(s.queue[0]) {
			s.queue = s.queue[1:]
		}
		if len(s.queue) == 0 || s.env.Cluster.FreeUnclaimed() == 0 {
			return // every job needs a processor
		}
		// The head does not fit: compute its reservation.
		shadow, extra := s.shadow(s.queue[0])
		// Backfill the first eligible job, then recompute everything —
		// the conservative way to keep the legality conditions exact.
		started := false
		now := s.env.Now()
		for i := 1; i < len(s.queue); i++ {
			j := s.queue[i]
			if s.backfills(j, now, shadow, extra) && s.start(j) {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				started = true
				break
			}
		}
		if !started {
			return
		}
	}
}

// backfills reports whether queued job j may start now ahead of a head
// whose reservation is (shadow, extra): it fits in the free processors
// and either finishes before the head starts or fits in the processors
// the head leaves unused.
func (s *Sched) backfills(j *job.Job, now, shadow int64, extra int) bool {
	return j.Procs <= s.env.Cluster.FreeUnclaimed() && (now+j.Estimate <= shadow || j.Procs <= extra)
}

// shadow computes the head job's reservation: the earliest time enough
// processors are projected free (based on estimates), and the number of
// processors that will remain free beyond the head's need at that time.
func (s *Sched) shadow(head *job.Job) (shadowTime int64, extraNodes int) {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseBackfillWindow, span)
	return s.running.Shadow(s.env.Cluster.FreeUnclaimed(), head.Procs)
}
