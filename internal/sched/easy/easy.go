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

// Sched is the aggressive-backfilling policy. It serves the driver's
// wait queue (sched.Env.Idle), which is in FCFS order.
type Sched struct {
	env *sched.Env
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
// schedule, so the queue without j already holds no job that can
// start: its head does not fit, and nothing behind it passes the
// backfill test. Free processors and the release list have not changed
// since, and a later now only makes the shadow-time test harder. So
// the pass is run only when j itself may start: when it is the head,
// or when it passes the backfill test.
func (s *Sched) OnArrival(j *job.Job) {
	if s.env.Idle()[0] != j && !s.mayBackfill(j) {
		return
	}
	s.schedule()
}

// mayBackfill reports whether queued job j passes the backfill test
// against the reservation of the head, which does not fit.
func (s *Sched) mayBackfill(j *job.Job) bool {
	free := s.env.Cluster.FreeUnclaimed()
	if j.Procs > free {
		return false
	}
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseQueueScan, span)
	shadow, extra := s.shadow(s.env.Idle()[0])
	return backfills(j, s.env.Now(), shadow, extra)
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

// OnFailure implements sched.Scheduler: displaced jobs leave the
// release list, and the whole schedule (head reservation included) is
// recomputed against the surviving machine. Each displaced job was
// running (Remove panics otherwise).
func (s *Sched) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		s.running.Remove(j, j.ProjectedEnd())
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

// schedule starts queue heads while they fit, then backfills in one
// pass over the rest of the queue. After each backfill start the head's
// reservation is walked again. Every job the pass has left behind
// failed the backfill test, and still fails it when the shadow time is
// unchanged and the extra processors did not grow, since the free
// processors only shrank: the pass then goes on where it stopped.
// Otherwise it restarts behind the head. The extra processors can grow
// at an unchanged shadow time: a started job that ends exactly at the
// shadow leaves fewer processors free, so the walk, which takes equal
// release times in job-ID order, may go on past the release it used to
// stop at and take a larger one before it reaches the started job's.
func (s *Sched) schedule() {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseQueueScan, span)
	queue := s.env.Idle()
	for len(queue) > 0 && s.start(queue[0]) {
		queue = s.env.Idle()
	}
	free := s.env.Cluster.FreeUnclaimed()
	if len(queue) == 0 || free == 0 {
		return // every job needs a processor
	}
	// The head does not fit: compute its reservation.
	shadow, extra := s.shadow(queue[0])
	now := s.env.Now()
	// The scan passes over the jobs wider than the free processors
	// (Env.Fitting), so every job it tests fits in them.
	for i := s.env.Fitting(1, free); i < len(queue); i = s.env.Fitting(i, free) {
		if !backfills(queue[i], now, shadow, extra) || !s.start(queue[i]) {
			i++
			continue
		}
		queue = s.env.Idle() // the next job moves into position i
		if free = s.env.Cluster.FreeUnclaimed(); free == 0 {
			return
		}
		nextShadow, nextExtra := s.shadow(queue[0])
		if nextShadow != shadow || nextExtra > extra {
			i = 1
		}
		shadow, extra = nextShadow, nextExtra
	}
}

// backfills reports whether queued job j, which fits in the free
// processors, may start now ahead of a head whose reservation is
// (shadow, extra): it either finishes before the head starts or fits
// in the processors the head leaves unused.
func backfills(j *job.Job, now, shadow int64, extra int) bool {
	return now+j.Estimate <= shadow || j.Procs <= extra
}

// shadow computes the head job's reservation: the earliest time enough
// processors are projected free (based on estimates), and the number of
// processors that will remain free beyond the head's need at that time.
func (s *Sched) shadow(head *job.Job) (shadowTime int64, extraNodes int) {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseBackfillWindow, span)
	return s.running.Shadow(s.env.Cluster.FreeUnclaimed(), head.Procs)
}
