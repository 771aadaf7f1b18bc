// Package depthbf implements reservation-depth backfilling, the knob
// between the paper's two background policies: the first Depth jobs in
// arrival order hold start-time reservations (Depth = 1 gives EASY's
// aggressive backfilling, Depth → ∞ approaches conservative), and any
// other queued job may start immediately iff doing so provably delays
// none of those reservations. The legality test is exact: the
// reservations are recomputed against a hypothetical profile that
// includes the candidate.
//
// The paper's own follow-up work ("Selective reservation strategies for
// backfill job scheduling", its reference [16]) studies exactly this
// spectrum; the ablation-depth experiment reproduces its flavour.
package depthbf

import (
	"strconv"

	"pjs/internal/job"
	"pjs/internal/perf"
	"pjs/internal/sched"
)

// Sched is the reservation-depth backfilling policy. Its profiles start
// from the driver's running jobs (sched.Env.Running).
type Sched struct {
	env   *sched.Env
	depth int
	queue []*job.Job
}

// New returns a scheduler holding reservations for the first depth
// queued jobs (minimum 1).
func New(depth int) *Sched {
	if depth < 1 {
		depth = 1
	}
	return &Sched{depth: depth}
}

// Name implements sched.Scheduler.
func (s *Sched) Name() string {
	return "DepthBF(" + strconv.Itoa(s.depth) + ")"
}

// Init implements sched.Scheduler.
func (s *Sched) Init(env *sched.Env) { s.env = env }

// TickInterval implements sched.Scheduler: purely event-driven.
func (s *Sched) TickInterval() int64 { return 0 }

// OnArrival implements sched.Scheduler.
func (s *Sched) OnArrival(j *job.Job) {
	s.queue = append(s.queue, j)
	s.schedule()
}

// OnCompletion implements sched.Scheduler.
func (s *Sched) OnCompletion(*job.Job) { s.schedule() }

// OnSuspendDone implements sched.Scheduler; never suspends.
func (s *Sched) OnSuspendDone(*job.Job) {}

// OnTick implements sched.Scheduler.
func (s *Sched) OnTick() {}

// OnFailure implements sched.Scheduler: displaced jobs rejoin the queue
// at their submission-order position (restoring the arrival order the
// reservation depth is defined over) and the schedule is recomputed
// against the surviving machine. Every displaced job was running (this
// policy never suspends), so none of them is queued already.
func (s *Sched) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		s.queue = sched.InsertBySubmit(s.queue, j)
	}
	s.schedule()
}

// OnRepair implements sched.Scheduler: recovered capacity may advance
// any reservation.
func (s *Sched) OnRepair(int) { s.schedule() }

func (s *Sched) start(j *job.Job) bool {
	if !s.env.StartFresh(j) {
		return false
	}
	s.queue = sched.Remove(s.queue, j)
	return true
}

// anchors computes the reservation start times of the first depth queued
// jobs against a copy of the given profile (which is consumed).
func (s *Sched) anchors(p *sched.Profile, now int64) []int64 {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseBackfillWindow, span)
	n := s.depth
	if n > len(s.queue) {
		n = len(s.queue)
	}
	capacity := s.env.Cluster.UpCount()
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		j := s.queue[i]
		if j.Procs > capacity {
			out[i] = sched.FarFuture
			continue
		}
		a := p.FindStart(now, j.Procs, j.Estimate)
		p.Sub(a, a+j.Estimate, j.Procs)
		out[i] = a
	}
	return out
}

// schedule starts every job the reservation discipline allows.
func (s *Sched) schedule() {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseQueueScan, span)
	for {
		now := s.env.Now()
		// Reserved jobs whose anchor is now start directly (in queue
		// order; the profile already accounts for the earlier ones).
		base := s.anchors(sched.RunningProfile(now, s.env.Cluster.UpCount(), s.env.Running()), now)
		started := false
		for i := 0; i < len(base); i++ {
			if base[i] == now && s.queue[i].Procs <= s.env.Cluster.FreeUnclaimed() {
				if s.start(s.queue[i]) {
					started = true
					break
				}
			}
		}
		if started {
			continue
		}
		if len(s.queue) == 0 {
			return
		}
		// Backfill: any other queued job may start iff the reserved
		// anchors do not regress.
		for i := s.depthOrLen(); i < len(s.queue); i++ {
			c := s.queue[i]
			if c.Procs > s.env.Cluster.FreeUnclaimed() {
				continue
			}
			if s.backfillLegal(c, now, base) {
				if s.start(c) {
					started = true
					break
				}
			}
		}
		if !started {
			return
		}
	}
}

func (s *Sched) depthOrLen() int {
	if s.depth < len(s.queue) {
		return s.depth
	}
	return len(s.queue)
}

// backfillLegal reports whether starting candidate c now leaves every
// reserved job's anchor at or before its current value.
func (s *Sched) backfillLegal(c *job.Job, now int64, base []int64) bool {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseBackfillWindow, span)
	p := sched.RunningProfile(now, s.env.Cluster.UpCount(), s.env.Running())
	p.Sub(now, now+c.Estimate, c.Procs)
	capacity := s.env.Cluster.UpCount()
	n := len(base)
	idx := 0
	for i := 0; i < len(s.queue) && idx < n; i++ {
		j := s.queue[i]
		if j == c {
			continue
		}
		if j.Procs > capacity {
			// Parked at sched.FarFuture in base too; the candidate cannot
			// delay it further.
			idx++
			continue
		}
		a := p.FindStart(now, j.Procs, j.Estimate)
		if a > base[idx] {
			return false
		}
		p.Sub(a, a+j.Estimate, j.Procs)
		idx++
	}
	return true
}
