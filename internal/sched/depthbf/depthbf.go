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

// Sched is the reservation-depth backfilling policy. It serves the
// driver's wait queue (sched.Env.Idle), whose FCFS order is the order
// the reservation depth counts in, and its profiles start from the
// driver's running jobs (sched.Env.Running).
type Sched struct {
	env   *sched.Env
	depth int
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
func (s *Sched) OnArrival(*job.Job) { s.schedule() }

// OnCompletion implements sched.Scheduler.
func (s *Sched) OnCompletion(*job.Job) { s.schedule() }

// OnSuspendDone implements sched.Scheduler; never suspends.
func (s *Sched) OnSuspendDone(*job.Job) {}

// OnTick implements sched.Scheduler.
func (s *Sched) OnTick() {}

// OnFailure implements sched.Scheduler: the displaced jobs are back in
// the queue at their submission-order places, and the schedule is
// recomputed against the surviving machine.
func (s *Sched) OnFailure(int, []*job.Job) { s.schedule() }

// OnRepair implements sched.Scheduler: recovered capacity may advance
// any reservation.
func (s *Sched) OnRepair(int) { s.schedule() }

// anchors computes the reservation start times of the first depth queued
// jobs against the given profile (which is consumed).
func (s *Sched) anchors(p *sched.Profile, now int64) []int64 {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseBackfillWindow, span)
	queue := s.env.Idle()
	n := min(s.depth, len(queue))
	capacity := s.env.Cluster.UpCount()
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		j := queue[i]
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
		queue := s.env.Idle()
		started := false
		for i := 0; i < len(base); i++ {
			if base[i] == now && queue[i].Procs <= s.env.Cluster.FreeUnclaimed() {
				if s.env.StartFresh(queue[i]) {
					started = true
					break
				}
			}
		}
		if started {
			continue
		}
		if len(queue) == 0 {
			return
		}
		// Backfill: any other queued job that fits in the free
		// processors may start iff the reserved anchors do not regress.
		free := s.env.Cluster.FreeUnclaimed()
		for i := s.env.Fitting(len(base), free); i < len(queue); i = s.env.Fitting(i+1, free) {
			if c := queue[i]; s.backfillLegal(c, now, base) && s.env.StartFresh(c) {
				started = true
				break
			}
		}
		if !started {
			return
		}
	}
}

// backfillLegal reports whether starting candidate c now leaves every
// reserved job's anchor at or before its current value.
func (s *Sched) backfillLegal(c *job.Job, now int64, base []int64) bool {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseBackfillWindow, span)
	p := sched.RunningProfile(now, s.env.Cluster.UpCount(), s.env.Running())
	p.Sub(now, now+c.Estimate, c.Procs)
	capacity := s.env.Cluster.UpCount()
	queue := s.env.Idle()
	n := len(base)
	idx := 0
	for i := 0; i < len(queue) && idx < n; i++ {
		j := queue[i]
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
