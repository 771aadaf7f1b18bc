package ss

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
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

// checkKept compares every record of the state s's last reconcile kept
// with one rebuilt from nothing at time now, over the idle jobs queue
// and the running or committed jobs running (the caller's own lists):
// the block map and owner records, the victims in order, each reentry
// need with its value, hold and crossing instant, the cover index and
// the crossing heap. It returns the first difference.
func checkKept(s *Sched, queue, running []*job.Job, now int64) error {
	h := &s.hz
	cl := s.env.Cluster
	block := make([]float64, cl.Size())
	holder := make([]*job.Job, cl.Size())
	var victims []victimX
	nRunning := 0
	for _, r := range running {
		if r.State != job.Running {
			continue // a committed pending start holds nothing yet
		}
		nRunning++
		x := r.XFactor(now)
		v := math.Inf(1)
		if s.cfg.suspendable(r, x) && s.env.SetIOHealthy(r.ProcSet) {
			v = x
			victims = append(victims, victimX{x: x, j: r})
		}
		for _, p := range r.ProcSet {
			block[p], holder[p] = v, r
		}
	}
	for p := range block {
		switch {
		case holder[p] != nil:
		case cl.Owner(p) != -1 || cl.Claimant(p) != -1:
			block[p] = math.Inf(1)
		default:
			block[p] = -1
		}
	}
	for p, want := range block {
		if h.block[p] != want {
			return fmt.Errorf("processor %d blocks at %v, rebuilt %v", p, h.block[p], want)
		}
		i := h.ownRec[p]
		if holder[p] == nil {
			if i != -1 {
				return fmt.Errorf("processor %d names owner record %d but no job runs on it", p, i)
			}
			continue
		}
		if i < 0 || int(i) >= len(h.owners) {
			return fmt.Errorf("processor %d of running %v names owner record %d", p, holder[p], i)
		}
		o := h.owners[i]
		if o.incarnation != (incarnation{holder[p], holder[p].Epoch}) || !slices.Equal(o.set, holder[p].ProcSet) || o.x != want {
			return fmt.Errorf("processor %d: owner record of %v (epoch %d, value %v), rebuilt %v (epoch %d, value %v)",
				p, o.j, o.epoch, o.x, holder[p], holder[p].Epoch, want)
		}
	}
	if len(h.owners) != nRunning {
		return fmt.Errorf("%d owner records for %d running jobs", len(h.owners), nRunning)
	}
	slices.SortFunc(victims, byXThenID)
	if !slices.Equal(h.victims, victims) {
		return fmt.Errorf("victims %v, rebuilt %v", victimIDs(h.victims), victimIDs(victims))
	}
	nIdle := 0
	for _, j := range queue {
		if !s.reenters(j) {
			continue
		}
		nIdle++
		i := h.find(j)
		if i < 0 {
			return fmt.Errorf("suspended idle %v has no kept reentry need", j)
		}
		n := h.needs[i]
		need := -1.0
		for _, p := range j.ProcSet {
			need = max(need, block[p])
		}
		at := int64(math.MaxInt64)
		if d := s.cfg.crossing(now, j, need); need >= 0 && d != math.MaxInt64 {
			at = now + d
		}
		switch {
		case n.incarnation != (incarnation{j, j.Epoch}) || !slices.Equal(n.set, j.ProcSet):
			return fmt.Errorf("the need of %v is kept for epoch %d on %v", j, n.epoch, n.set)
		case n.need != need:
			return fmt.Errorf("the need of %v is %v, rebuilt %v", j, n.need, need)
		case n.held == h.gen:
			return fmt.Errorf("the need of %v is held before any commit", j)
		case n.at != at:
			return fmt.Errorf("the need of %v crosses at %d, rebuilt %d", j, n.at, at)
		case n.fell || n.queued:
			return fmt.Errorf("the need of %v is still listed for a recompute", j)
		}
	}
	if len(h.needs) != nIdle {
		return fmt.Errorf("%d reentry needs for %d suspended idle jobs", len(h.needs), nIdle)
	}
	if len(h.changed) != 0 {
		return fmt.Errorf("%d needs still listed for a recompute", len(h.changed))
	}
	links := 0
	for i, n := range h.needs {
		links += len(n.set)
		for _, p := range n.set {
			if h.cover[p*h.cw+i>>6]&(1<<(i&63)) == 0 {
				return fmt.Errorf("the need of %v does not cover processor %d", n.j, p)
			}
		}
	}
	for _, w := range h.cover {
		links -= bits.OnesCount64(w)
	}
	if links != 0 {
		return fmt.Errorf("the cover index holds %d links more than the needs' sets", -links)
	}
	if len(h.heap) != len(h.needs) {
		return fmt.Errorf("%d needs in the heap of %d", len(h.heap), len(h.needs))
	}
	for k, i := range h.heap {
		if int(h.needs[i].pos) != k {
			return fmt.Errorf("heap place %d holds need %d, whose place is %d", k, i, h.needs[i].pos)
		}
		if k > 0 && h.needs[h.heap[(k-1)/2]].at > h.needs[i].at {
			return fmt.Errorf("heap place %d crosses before its parent", k)
		}
	}
	return nil
}

// victimIDs returns the job IDs of victims, in order.
func victimIDs(victims []victimX) []int {
	ids := make([]int, len(victims))
	for i, v := range victims {
		ids[i] = v.j.ID
	}
	return ids
}
