// Package is implements the Immediate Service (IS) preemptive policy of
// Chiang and Vernon, the comparison scheme of Section II-C: every
// arriving job is given an immediate timeslice of ten minutes, suspending
// one or more running jobs if needed; victims are the running jobs with
// the lowest instantaneous-xfactor,
//
//	(wait time + total accumulated run time) / total accumulated run time.
//
// Jobs inside their initial timeslice are protected from suspension.
// Because IS was designed for shared-memory systems, the original has no
// placement constraint; in this paper's cluster setting suspended jobs
// keep the local-restart requirement (same processor set), which is what
// makes IS collapse for long and wide jobs in the evaluation.
//
// The policy keeps no list of idle or running jobs: it decides from the
// driver's (sched.Env.Idle, sched.Env.Running) and keeps only the end of
// each job's protected slice.
package is

import (
	"math"
	"slices"

	"pjs/internal/job"
	"pjs/internal/perf"
	"pjs/internal/sched"
)

// SliceSeconds is the immediate-service timeslice: 10 minutes.
const SliceSeconds = 600

// Sched is the IS policy.
type Sched struct {
	env      *sched.Env
	sliceEnd map[int]int64

	// Scratch reused across passes: the jobs a pass serves (the actors,
	// in serving order), the victim candidates, the sort that orders
	// both, and a commit's victims and claim, which the driver copies.
	idle    []*job.Job
	cands   []*job.Job
	ord     job.Order
	victims []*job.Job
	claim   []int
}

// New returns an Immediate Service scheduler.
func New() *Sched { return &Sched{} }

// Name implements sched.Scheduler.
func (s *Sched) Name() string { return "IS" }

// Init implements sched.Scheduler.
func (s *Sched) Init(env *sched.Env) {
	s.env = env
	s.sliceEnd = make(map[int]int64)
}

// TickInterval implements sched.Scheduler: a periodic retry lets queued
// arrivals claim their slice once protections expire.
func (s *Sched) TickInterval() int64 { return 60 }

// OnArrival implements sched.Scheduler.
func (s *Sched) OnArrival(*job.Job) { s.schedule() }

// OnCompletion implements sched.Scheduler.
func (s *Sched) OnCompletion(j *job.Job) {
	delete(s.sliceEnd, j.ID)
	s.schedule()
}

// OnSuspendDone implements sched.Scheduler: the victim is idle again.
func (s *Sched) OnSuspendDone(*job.Job) { s.schedule() }

// OnTick implements sched.Scheduler. A tick whose pass has no actor
// skips it until the horizon, before which none can appear.
func (s *Sched) OnTick() {
	now := s.env.Now()
	if h := s.actors(now); now < h && s.env.QuietUntil(h) {
		return
	}
	span := s.env.Probe().Begin()
	s.serve(now)
	s.env.Probe().End(perf.PhaseQueueScan, span)
}

// OnFailure implements sched.Scheduler: displaced jobs are idle again
// and forfeit their protected slice, if any; schedule() then serves them
// by instantaneous xfactor like any other idle job, resuming the
// still-Suspended ones and restarting the rest from scratch.
func (s *Sched) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		delete(s.sliceEnd, j.ID)
	}
	s.schedule()
}

// OnRepair implements sched.Scheduler: recovered capacity is offered to
// the idle queue immediately.
func (s *Sched) OnRepair(int) { s.schedule() }

// actors collects into s.idle the idle jobs that can act now and
// returns the horizon: the first time at which a pass could
// start, resume or suspend a job if no event arrives before then. A job
// acts when
//
//   - it is suspended and its remembered set is free (it resumes);
//   - it is queued and fits in the free processors (it starts);
//   - it has never run and fits into avail, the free processors plus
//     the Running, unprotected, I/O-healthy jobs it may suspend (it
//     gets its immediate slice by preemption).
//
// Capacity only shrinks during a pass: a resume moves its width from
// free to unprotected running, a start or a commit takes processors
// and protects them, and processors are freed only at events. So a job
// that cannot act when the pass begins cannot act later in it, and the
// pass serves only the actors.
//
// The horizon is now when some job acts. Otherwise the only input of
// the pass that changes with time is which running jobs are protected,
// and a slice ends at an integer sliceEnd compared as now < end: the
// horizon is the earliest end of a protected slice, when avail grows,
// or never when no never-run job waits (only those preempt).
//
//lint:allocfree scratch already holds as many entries as there are idle jobs
func (s *Sched) actors(now int64) int64 {
	c := s.env.Cluster
	free := c.FreeUnclaimed()
	avail, end := -1, int64(math.MaxInt64) // avail < 0: not yet computed
	queue := s.env.Idle()
	idle := slices.Grow(s.idle[:0], len(queue))[:len(queue)]
	n := 0
	for _, j := range queue {
		acts := false
		switch {
		case j.State == job.Suspended:
			acts = c.SetFree(j.ID, j.ProcSet)
		case j.Procs <= free:
			acts = true
		case j.FirstStart < 0:
			if avail < 0 {
				avail, end = s.capacity(now, free)
			}
			acts = j.Procs <= avail
		}
		if acts {
			idle[n] = j
			n++
		}
	}
	s.idle = idle[:n]
	switch {
	case n > 0:
		return now
	case avail < 0:
		return math.MaxInt64 // no never-run job waits
	}
	return end
}

// capacity returns avail, the free processors plus the widths of the
// Running, unprotected, I/O-healthy jobs a never-run job may suspend,
// and the earliest end of a protected slice (math.MaxInt64 if none).
func (s *Sched) capacity(now int64, free int) (avail int, end int64) {
	avail, end = free, math.MaxInt64
	for _, r := range s.env.Running() {
		if e, ok := s.sliceEnd[r.ID]; ok && now < e {
			end = min(end, e)
		} else if s.env.SetIOHealthy(r.ProcSet) {
			avail += r.Procs
		}
	}
	return avail, end
}

// protected reports whether v is inside its initial timeslice.
func (s *Sched) protected(v *job.Job, now int64) bool {
	end, ok := s.sliceEnd[v.ID]
	return ok && now < end
}

// markStarted protects a job the policy just launched. Only a job's
// very first start earns the protected timeslice; resumed jobs run
// unprotected.
func (s *Sched) markStarted(j *job.Job, now int64) {
	if j.Suspensions == 0 && (j.FirstStart == -1 || j.FirstStart == now) {
		s.sliceEnd[j.ID] = now + SliceSeconds
	}
}

// schedule is the pass of an event hook: it collects the actors and
// serves them.
func (s *Sched) schedule() {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseQueueScan, span)
	now := s.env.Now()
	s.actors(now)
	s.serve(now)
}

// serve serves s.idle in descending instantaneous-xfactor order:
// resume suspended jobs whose set is free, start fresh jobs that fit,
// and give never-run jobs their immediate slice by suspending the
// lowest-ixf unprotected running jobs. The order is total, so serving
// only the actors keeps the relative order a sort of all the idle jobs
// gives them.
func (s *Sched) serve(now int64) {
	if len(s.idle) == 0 {
		return
	}
	s.ord.Sort(s.idle, func(j *job.Job) (float64, int64) { return -j.InstantaneousXFactor(now), 0 })
	for _, j := range s.idle {
		switch {
		case j.State == job.Suspended:
			if s.env.Resume(j) {
				s.markStarted(j, now)
			}
		case s.env.StartFresh(j):
			s.markStarted(j, now)
		case j.FirstStart < 0:
			// Immediate service: a job that has never run may obtain
			// its slice by suspending low-ixf unprotected jobs.
			s.tryImmediate(j, now)
		}
	}
}

// tryImmediate attempts to start never-run job j by preemption.
func (s *Sched) tryImmediate(j *job.Job, now int64) {
	free := s.env.Cluster.FreeUnclaimed()
	if free >= j.Procs {
		return // StartFresh path already handled it
	}
	// Victims in ascending instantaneous-xfactor among unprotected
	// running jobs; IS has no width restriction. Jobs on I/O-degraded
	// processors are not candidates — their suspension write would
	// likely fail — so under rising transient-fault rates IS degrades
	// toward serving only what fits the free processors.
	span := s.env.Probe().Begin()
	s.cands = s.cands[:0]
	for _, r := range s.env.Running() {
		if !s.protected(r, now) && s.env.SetIOHealthy(r.ProcSet) {
			s.cands = append(s.cands, r)
		}
	}
	s.ord.Sort(s.cands, func(j *job.Job) (float64, int64) { return j.InstantaneousXFactor(now), 0 })
	victims := s.victims[:0]
	avail := free
	for _, v := range s.cands {
		if avail >= j.Procs {
			break
		}
		victims = append(victims, v)
		avail += v.Procs
	}
	s.victims = victims
	s.env.Probe().End(perf.PhaseVictimSelect, span)
	if avail < j.Procs {
		return // not enough suspendable capacity; retry on later events
	}
	claim := s.env.Cluster.ListFreeUnclaimed(j.Procs, s.claim[:0])
	for _, v := range victims {
		for _, p := range v.ProcSet {
			if len(claim) == j.Procs {
				break
			}
			claim = append(claim, p)
		}
		delete(s.sliceEnd, v.ID)
	}
	s.claim = claim
	s.env.PreemptAndStart(j, victims, claim)
	s.markStarted(j, now)
}
