package ss

import (
	"cmp"
	"math"
	"slices"

	"pjs/internal/job"
)

// refHorizon is the quiet-tick horizon computed from nothing at every
// tick, as SS did before it kept its state between ticks: scanRunning
// rebuilds a per-processor table of holder xfactors and the victims,
// reentryNeed walks each suspended job's remembered set, and the scan
// takes the least crossing. It is the differential reference for
// Sched.horizon and shares no state with it: the idle queue and the
// running list it reads are the caller's own (passMaximal's), not the
// driver's sets.
type refHorizon struct {
	victims     []victimX
	sorted      bool
	holderX     []float64
	needByWidth []float64
}

// horizon returns the reference horizon of s at time now, over the idle
// jobs queue and the running or committed jobs running.
func (r *refHorizon) horizon(s *Sched, queue, running []*job.Job, now int64) int64 {
	if len(queue) == 0 {
		return math.MaxInt64 // nothing idle until an event
	}
	r.scanRunning(s, running, now)
	if len(r.victims) == 0 {
		return math.MaxInt64 // nothing to preempt until an event
	}
	tick := s.TickInterval()
	free := s.env.Cluster.FreeUnclaimed()
	minX := math.Inf(1) // no idle job needs less than the least victim xfactor
	for _, v := range r.victims {
		minX = min(minX, v.x)
	}
	best := int64(math.MaxInt64)
	for _, j := range queue {
		reentry := j.State == job.Suspended && !s.cfg.Migration
		if !reentry && j.Procs <= free {
			continue // fits without preemption, so takes no victims
		}
		if s.cfg.crossing(now, j, minX) >= best {
			continue // cannot beat the best crossing so far
		}
		var need float64
		if reentry {
			need = r.reentryNeed(s, j, now, best)
		} else {
			need = r.freshNeed(s, j.Procs, free)
		}
		if d := s.cfg.crossing(now, j, need); d < best {
			if d <= tick {
				return now
			}
			best = d
		}
	}
	if best == math.MaxInt64 {
		return best
	}
	return now + best - tick
}

// scanRunning rebuilds the holder table and the victims from the
// running jobs at time now.
func (r *refHorizon) scanRunning(s *Sched, running []*job.Job, now int64) {
	n := s.env.Cluster.Size()
	if len(r.holderX) != n {
		r.holderX = make([]float64, n)
		r.needByWidth = make([]float64, n+1)
	}
	for p := range r.holderX {
		r.holderX[p] = -1
	}
	r.victims = r.victims[:0]
	r.sorted = false
	for _, run := range running {
		if run.State != job.Running {
			continue // a committed pending start holds nothing yet
		}
		x := run.XFactor(now)
		hx := math.Inf(1)
		if s.cfg.suspendable(run, x) && s.env.SetIOHealthy(run.ProcSet) {
			hx = x
			r.victims = append(r.victims, victimX{x: x, j: run})
		}
		for _, p := range run.ProcSet {
			r.holderX[p] = hx
		}
	}
}

// freshNeed is the fresh-job need over the reference victims.
func (r *refHorizon) freshNeed(s *Sched, w, free int) float64 {
	if !r.sorted {
		slices.SortFunc(r.victims, func(a, b victimX) int {
			if c := cmp.Compare(a.x, b.x); c != 0 {
				return c
			}
			return cmp.Compare(a.j.ID, b.j.ID)
		})
		for i := range r.needByWidth {
			r.needByWidth[i] = -1
		}
		r.sorted = true
	}
	if need := r.needByWidth[w]; need >= 0 {
		return need
	}
	need := math.Inf(1)
	avail := free
	for _, v := range r.victims {
		if !s.cfg.DisableHalfWidthRule && v.j.Procs > 2*w {
			continue
		}
		avail += v.j.Procs
		if avail >= w {
			need = v.x
			break
		}
	}
	r.needByWidth[w] = need
	return need
}

// reentryNeed returns the largest holder xfactor over j's remembered
// set; +Inf when a processor of the set is claimed by another job or
// held by a job that is not Running or not suspendable, or when nothing
// holds the set. It stops early, returning the need so far, once that
// alone puts the crossing no sooner than best.
func (r *refHorizon) reentryNeed(s *Sched, j *job.Job, now, best int64) float64 {
	cl := s.env.Cluster
	need := 0.0
	for _, p := range j.ProcSet {
		x := r.holderX[p]
		if x < 0 {
			if cl.Owner(p) != -1 {
				return math.Inf(1) // held by a job that is not Running
			}
			if c := cl.Claimant(p); c != -1 && c != j.ID {
				return math.Inf(1) // reserved for a pending start
			}
			continue
		}
		if x > need {
			need = x
			if s.cfg.crossing(now, j, need) >= best {
				return need
			}
		}
	}
	if need == 0 {
		return math.Inf(1)
	}
	return need
}

// refVictims returns the victims with which idle job j commits at time
// now according to the selectors below, run from nothing on the
// caller's running list and the live cluster, or nil when it commits
// none. It is the differential reference for Sched.choose and shares no
// state with it. Jobs on I/O-degraded processors are no victim
// candidates, and a holder of a reentering job's set on such processors
// blocks the set.
func refVictims(s *Sched, running []*job.Job, j *job.Job, now int64) []*job.Job {
	var victims []*job.Job
	var ok bool
	if s.reenters(j) {
		victims, ok = refReentryVictims(s, j, now)
	} else {
		var cands []*job.Job
		for _, r := range running {
			if s.env.SetIOHealthy(r.ProcSet) {
				cands = append(cands, r)
			}
		}
		victims, ok = selectVictims(&s.cfg, now, j, cands, s.env.Cluster.FreeUnclaimed())
	}
	if !ok {
		return nil
	}
	return victims
}

// refReentryVictims classifies each processor of suspended job j's
// remembered set from the live cluster and selects its holders.
func refReentryVictims(s *Sched, j *job.Job, now int64) ([]*job.Job, bool) {
	cl := s.env.Cluster
	classify := func(proc int) (reentryBlocked, *job.Job) {
		owner := cl.Owner(proc)
		if owner == -1 {
			if c := cl.Claimant(proc); c != -1 && c != j.ID {
				return reentryHard, nil // reserved for a pending start
			}
			return reentryFree, nil
		}
		holder := s.env.JobByID(owner)
		if holder.State != job.Running || !s.env.SetIOHealthy(holder.ProcSet) {
			return reentryHard, nil // suspending, or its image write would likely fail
		}
		return reentryPreemptible, holder
	}
	return selectReentryVictims(&s.cfg, now, j, classify)
}

// canPreempt reports whether idle may suspend the running victim at
// time now under policy p. reentry marks a previously suspended idle job
// trying to reacquire its exact processor set; the half-width rule is
// waived there (Section IV-C: "Here we remove the restriction…").
func canPreempt(p *Config, now int64, idle, victim *job.Job, reentry bool) bool {
	vx := victim.XFactor(now)
	if !p.suspendable(victim, vx) {
		return false
	}
	if !reentry && !p.DisableHalfWidthRule && victim.Procs > 2*idle.Procs {
		return false
	}
	return idle.XFactor(now) >= p.SF*vx
}

// selectVictims is the fresh-idle-job branch of the paper's pseudocode
// (suspend_jobs_1) as a selection from nothing: scan running jobs in
// ascending priority collecting preemptible candidates until, together
// with the free processors, they cover the idle job's request; then
// suspend candidates in descending width, largest first, only as many
// as needed. It returns ok=false when the request cannot be covered.
// running may be in any order and may hold non-Running jobs.
func selectVictims(p *Config, now int64, idle *job.Job, running []*job.Job, freeProcs int) (victims []*job.Job, ok bool) {
	if freeProcs >= idle.Procs {
		return nil, true // nothing to suspend
	}
	var cands []*job.Job
	for _, r := range running {
		if r.State == job.Running {
			cands = append(cands, r)
		}
	}
	var ord job.Order
	ord.Sort(cands, func(j *job.Job) (float64, int64) { return j.XFactor(now), 0 })
	avail := freeProcs
	var chosen []*job.Job
	for _, v := range cands {
		if avail >= idle.Procs {
			break
		}
		if !canPreempt(p, now, idle, v, false) {
			continue
		}
		chosen = append(chosen, v)
		avail += v.Procs
	}
	if avail < idle.Procs {
		return nil, false
	}
	slices.SortFunc(chosen, func(a, b *job.Job) int {
		if c := cmp.Compare(b.Procs, a.Procs); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	avail = freeProcs
	for _, v := range chosen {
		if avail >= idle.Procs {
			break
		}
		victims = append(victims, v)
		avail += v.Procs
	}
	return victims, true
}

// reentryBlocked classifies one processor of a reentering job's
// remembered set.
type reentryBlocked int

const (
	// reentryFree: the processor is available to the reentering job.
	reentryFree reentryBlocked = iota
	// reentryPreemptible: the processor is held by a running job the
	// policy allows suspending.
	reentryPreemptible
	// reentryHard: the processor is held by a job that cannot be
	// preempted (policy refusal, or a non-running holder).
	reentryHard
)

// selectReentryVictims is the already_suspended branch (suspend_jobs_2)
// as a selection from nothing: the idle job needs exactly its
// remembered processor set back, so every processor must be either free
// or held by a running job that the SF condition (without the
// half-width rule) allows suspending. classify reports each processor's
// status and, for preemptible ones, its holder. It returns the distinct
// victims in order of first appearance and ok=false if any processor
// is hard-blocked.
func selectReentryVictims(p *Config, now int64, idle *job.Job, classify func(proc int) (reentryBlocked, *job.Job)) (victims []*job.Job, ok bool) {
	for _, proc := range idle.ProcSet {
		status, holder := classify(proc)
		switch status {
		case reentryFree:
			continue
		case reentryHard:
			return nil, false
		case reentryPreemptible:
			if slices.Contains(victims, holder) {
				continue
			}
			if holder == nil || holder.State != job.Running || !canPreempt(p, now, idle, holder, true) {
				return nil, false
			}
			victims = append(victims, holder)
		}
	}
	return victims, true
}
