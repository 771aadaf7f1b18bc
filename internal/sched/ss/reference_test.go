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
// Sched.horizon and shares no state with it.
type refHorizon struct {
	victims     []victimX
	sorted      bool
	holderX     []float64
	needByWidth []float64
}

// horizon returns the reference horizon of s at time now.
func (r *refHorizon) horizon(s *Sched, now int64) int64 {
	if len(s.queue) == 0 {
		return math.MaxInt64 // nothing idle until an event
	}
	r.scanRunning(s, now)
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
	for _, j := range s.queue {
		reentry := j.State == job.Suspended && !s.cfg.Migration
		if !reentry && j.Procs <= free {
			continue // fits without preemption, so takes no victims
		}
		if s.pol.Crossing(now, j, minX) >= best {
			continue // cannot beat the best crossing so far
		}
		var need float64
		if reentry {
			need = r.reentryNeed(s, j, now, best)
		} else {
			need = r.freshNeed(s, j.Procs, free)
		}
		if d := s.pol.Crossing(now, j, need); d < best {
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
func (r *refHorizon) scanRunning(s *Sched, now int64) {
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
	for _, run := range s.running {
		if run.State != job.Running {
			continue // a committed pending start holds nothing yet
		}
		x := run.XFactor(now)
		hx := math.Inf(1)
		if s.pol.Suspendable(run, x) && s.env.SetIOHealthy(run.ProcSet) {
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
			if s.pol.Crossing(now, j, need) >= best {
				return need
			}
		}
	}
	if need == 0 {
		return math.Inf(1)
	}
	return need
}
