package ss

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"pjs/internal/cluster"
	"pjs/internal/job"
)

// horizonState is the state SS keeps from one horizon to the next, so
// that a horizon rewrites only what changed since the last one (see
// horizon). It is the one record of who may suspend whom:
//
//   - the block map: per processor, -1 when free, the xfactor of its
//     holder when that holder is Running, suspendable and I/O-healthy,
//     +Inf for any other holder, a Suspending owner or a claim;
//   - the reentry need of each suspended idle job: the largest block
//     value over its remembered set, -1 when the whole set is free;
//   - the victims: the suspendable, I/O-healthy Running jobs, whose
//     prefixes in ascending xfactor the fresh jobs need.
//
// The preemption routine of a tick reads the state the tick's horizon
// kept (shortOf) and commits its preemptions from it (choose). Each
// commit holds the needs its claim and its victims' sets cover
// (committed), so that every need stays exact through the pass.
//
// The map is written only from three kinds of contributor: a Running
// job (ownerRec, found again through its first processor) and a
// pending start's claim or a suspending victim (hardRec, kept from the
// commit until it ends). Reentry needs are kept exact through a
// per-processor cover index, one bit per needRec.
type horizonState struct {
	// gen numbers the reconciles: it stamps the ownerRecs seen by the
	// current one and the needs held since it.
	gen uint32

	block  []float64 // per processor, the block map
	ownRec []int32   // per processor, the ownerRec that holds it, -1 none

	owners []ownerRec
	hard   []hardRec // claims and suspending victims, in commit order

	// needs are the reentry needs; entered lists the jobs that became
	// suspended idle jobs since the last reconcile; bit i of processor
	// p's cw cover words is set when needs[i] covers p.
	needs   []needRec
	entered []*job.Job
	cw      int
	cover   []uint64

	// victims are the suspendable, I/O-healthy Running jobs, in
	// ascending xfactor once sorted is set; minX is their least
	// xfactor; widths memoizes cover while sorted is set, until a
	// commit.
	victims []victimX
	sorted  bool
	minX    float64
	widths  []widthCover
}

// victimX is a suspendable running job with its xfactor at the horizon.
type victimX struct {
	x float64
	j *job.Job
}

// widthCover is a memoized cover.
type widthCover struct {
	w, at int
}

// ownerRec is Running job j's contribution to the block map at the
// last horizon: the set it holds and the value written there, its
// xfactor or +Inf. The set slice names the job: each start gives a job
// a set of its own, and a resume keeps it.
type ownerRec struct {
	j   *job.Job
	set []int
	x   float64
	gen uint32
}

// hardRec is a claim of a pending start, or the set of a suspending
// victim, from its commit until the start or the suspension ends.
// seen records that a reconcile has applied its set since the commit.
type hardRec struct {
	j     *job.Job
	set   []int
	claim bool
	seen  bool
}

// needRec is one suspended idle job's reentry need. stale marks a need
// that a fall in the block map may have lowered; the reconcile
// recomputes it from the set. held is the gen of the reconcile after
// which a commit claimed a processor of the set or suspended its
// holder: until the next reconcile the need is +Inf.
type needRec struct {
	j     *job.Job
	set   []int
	need  float64
	stale bool
	held  uint32
}

// horizon returns a virtual time before which no tick's preemption
// routine can commit a preemption, or now when this tick's may. The
// state it reads — the running jobs and their suspension counts, TSS
// limits, claims, ownership and I/O health — changes only at events,
// and the driver forgets the horizon at each. Meanwhile idle xfactors
// grow with time, and running ones stay put or grow (a restart read),
// which only makes them harder to preempt. So no tick before the
// earliest crossing, over the idle jobs, of SF times the xfactor each
// needs can act. The schedule pass that follows the routine has nothing
// to start either: the pass after the last event started all that fit.
//
// The horizon is one tick before that crossing, so float rounding in
// the SF comparison can never make a skipped tick one that would have
// acted. It first reconciles the kept state (reconcile), from which the
// preemption routine of the same tick then commits.
//
//lint:allocfree storage already sized for the machine, the running jobs and the suspended ones
func (s *Sched) horizon(now int64) int64 {
	h := int64(math.MaxInt64) // nothing idle, or nothing to preempt, until an event
	if len(s.env.Idle()) > 0 {
		s.reconcile(now)
		if best := s.earliestCrossing(now); best <= s.TickInterval() {
			h = now
		} else if best != math.MaxInt64 {
			h = now + best - s.TickInterval()
		}
	}
	return h
}

// earliestCrossing returns the least crossing over the idle jobs, or a
// value of at most one tick as soon as one job is within a tick. The
// minimum does not depend on the order of the jobs; the suspended ones
// go first because their needs are at hand and a low best lets the
// fresh jobs skip the sort of the victims.
func (s *Sched) earliestCrossing(now int64) int64 {
	h := &s.hz
	tick := s.TickInterval()
	free := s.env.Cluster.FreeUnclaimed()
	best := int64(math.MaxInt64)
	for i := range h.needs {
		n := &h.needs[i]
		if n.need < 0 {
			continue // a free set, which the schedule pass serves
		}
		if d := s.cfg.crossing(now, n.j, n.need); d < best {
			if d <= tick {
				return d
			}
			best = d
		}
	}
	for _, j := range s.env.Idle() {
		if s.reenters(j) || j.Procs <= free {
			continue // a need above, or fits without preemption
		}
		if s.cfg.crossing(now, j, h.minX) >= best {
			continue // cannot beat the best crossing so far
		}
		if d := s.cfg.crossing(now, j, s.freshNeed(j.Procs)); d < best {
			if d <= tick {
				return d
			}
			best = d
		}
	}
	return best
}

// reenters reports whether idle job j competes for its remembered set
// (a suspended job under local restart) rather than for any processors.
func (s *Sched) reenters(j *job.Job) bool {
	return j.State == job.Suspended && !s.cfg.Migration
}

// reconcile brings the kept state up to date at time now: it rewrites
// the block values of the sets whose contributor appeared, ended or
// changed value since the last reconcile, adjusts the needs those
// changes reach, and rebuilds the victims. A rise at a processor raises
// the needs covering it in place; a fall marks stale only the needs
// that equalled the old value, and those are recomputed at the end.
func (s *Sched) reconcile(now int64) {
	h := &s.hz
	cl := s.env.Cluster
	h.size(cl.Size())
	h.sweepNeeds(cl) // before the applies, which then skip the dropped needs
	h.gen++
	h.victims = h.victims[:0]
	h.sorted = false
	h.minX = math.Inf(1)
	running := s.env.Running()
	for _, r := range running {
		x := r.XFactor(now)
		v := math.Inf(1)
		if s.cfg.suspendable(r, x) && s.env.SetIOHealthy(r.ProcSet) {
			v = x
			h.victims = grow(h.victims)
			h.victims[len(h.victims)-1] = victimX{x: x, j: r}
			h.minX = min(h.minX, x)
		}
		h.keepOwner(r, v, cl)
	}
	if len(running) < len(h.owners) {
		h.sweepOwners(cl)
	}
	h.sweepHard(cl)
	for _, j := range h.entered {
		if s.reenters(j) && suspendedIdle(j, cl) && h.find(j) < 0 {
			h.addNeed(j)
		}
	}
	clear(h.entered)
	h.entered = h.entered[:0]
	h.refreshNeeds()
}

// suspendedIdle reports whether suspended job j waits in the idle queue
// rather than on a pending start: a suspended job under local restart
// is committed only with its own set as the claim.
func suspendedIdle(j *job.Job, cl *cluster.Cluster) bool {
	return j.State == job.Suspended && cl.Claimant(j.ProcSet[0]) != j.ID
}

// size allocates the per-processor storage for an n-processor machine.
func (h *horizonState) size(n int) {
	if len(h.block) == n {
		return
	}
	h.block = make([]float64, n)
	h.ownRec = make([]int32, n)
	for p := range h.block {
		h.block[p] = -1
		h.ownRec[p] = -1
	}
	h.cw = 1
	h.cover = make([]uint64, n)
}

// grow returns s extended by one zero element, reusing spare capacity.
func grow[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

// sameSet reports whether a and b are the same processor-set slice.
// A job's set is never written in place, so a job that still holds the
// slice a record saw still holds the same processors.
func sameSet(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// keepOwner stamps the ownerRec of Running job r, whose block value is
// now v, applying its set when the record is new or the value changed.
// Running jobs hold disjoint sets, so r's record, if any, is the one
// its first processor names.
func (h *horizonState) keepOwner(r *job.Job, v float64, cl *cluster.Cluster) {
	set := r.ProcSet
	if i := h.ownRec[set[0]]; i >= 0 && sameSet(h.owners[i].set, set) {
		o := &h.owners[i]
		o.gen = h.gen
		if o.x != v {
			o.x = v
			h.apply(set, cl)
		}
	} else {
		h.owners = grow(h.owners)
		i := int32(len(h.owners) - 1)
		h.owners[i] = ownerRec{j: r, set: set, x: v, gen: h.gen}
		for _, p := range set {
			h.ownRec[p] = i
		}
		h.apply(set, cl)
	}
}

// sweepOwners removes the ownerRecs this reconcile did not stamp —
// their job stopped running, moved, or changed value — and applies
// their sets. A processor already taken over by a newer record keeps
// it. The last record fills each hole, so the records stay dense.
func (h *horizonState) sweepOwners(cl *cluster.Cluster) {
	for i := 0; i < len(h.owners); {
		o := h.owners[i]
		if o.gen == h.gen {
			i++
			continue
		}
		h.relabel(o.set, int32(i), -1)
		last := len(h.owners) - 1
		if i != last {
			h.owners[i] = h.owners[last]
			h.relabel(h.owners[i].set, int32(last), int32(i))
		}
		h.owners[last] = ownerRec{}
		h.owners = h.owners[:last]
		h.apply(o.set, cl)
	}
}

// relabel points the processors of set that ownRec maps to from at to.
func (h *horizonState) relabel(set []int, from, to int32) {
	for _, p := range set {
		if h.ownRec[p] == from {
			h.ownRec[p] = to
		}
	}
}

// sweepHard applies the sets of the hardRecs that began or ended since
// the last reconcile and drops the ended ones. A claim lives while its
// job still claims its first processor (claims are taken and dropped
// whole); a victim lives while it is Suspending.
func (h *horizonState) sweepHard(cl *cluster.Cluster) {
	n := 0
	for _, r := range h.hard {
		live := r.j.State == job.Suspending
		if r.claim {
			live = cl.Claimant(r.set[0]) == r.j.ID
		}
		if !live || !r.seen {
			h.apply(r.set, cl)
		}
		if live {
			r.seen = true
			h.hard[n] = r
			n++
		}
	}
	clear(h.hard[n:])
	h.hard = h.hard[:n]
}

// apply recomputes the block value of each processor of set, whose
// contributor just appeared, ended or changed value, and carries each
// change to the needs that cover it. A processor not held by a Running
// job is blocked when the cluster shows an owner (a suspending victim)
// or a claim on it. The records of a snapshot hold disjoint sets, and
// every stale record is swept before the claims and victims are
// applied, so each processor ends at its value in the current state.
func (h *horizonState) apply(set []int, cl *cluster.Cluster) {
	for _, p := range set {
		nb := -1.0
		if i := h.ownRec[p]; i >= 0 {
			nb = h.owners[i].x
		} else if cl.Owner(p) != -1 || cl.Claimant(p) != -1 {
			nb = math.Inf(1)
		}
		if ob := h.block[p]; nb != ob {
			h.block[p] = nb
			h.carry(p, ob, nb)
		}
	}
}

// carry updates the needs covering processor p for its block value
// moving from ob to nb: a rise raises each below nb, a fall marks stale
// each that equalled ob (p may have been its maximum).
func (h *horizonState) carry(p int, ob, nb float64) {
	for k, w := range h.cover[p*h.cw : (p+1)*h.cw] {
		for ; w != 0; w &= w - 1 {
			n := &h.needs[k<<6|bits.TrailingZeros64(w)]
			if nb > ob {
				n.need = max(n.need, nb)
			} else if n.need == ob {
				n.stale = true
			}
		}
	}
}

// find returns the needRec index of suspended job j, or -1. The record,
// if any, covers the first processor of j's set.
func (h *horizonState) find(j *job.Job) int {
	p := j.ProcSet[0]
	for k, w := range h.cover[p*h.cw : (p+1)*h.cw] {
		for ; w != 0; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			if n := &h.needs[i]; n.j == j && sameSet(n.set, j.ProcSet) {
				return i
			}
		}
	}
	return -1
}

// addNeed adds a needRec for suspended idle job j, linked into the
// cover index and stale, so that refreshNeeds computes it.
func (h *horizonState) addNeed(j *job.Job) {
	h.needs = grow(h.needs)
	h.fitCover()
	i := len(h.needs) - 1
	h.needs[i] = needRec{j: j, set: j.ProcSet, stale: true}
	h.link(j.ProcSet, i, true)
}

// link sets (on) or clears the cover bit of needs[i] on the processors
// of set.
func (h *horizonState) link(set []int, i int, on bool) {
	word, bit := i>>6, uint64(1)<<(i&63)
	for _, p := range set {
		if on {
			h.cover[p*h.cw+word] |= bit
		} else {
			h.cover[p*h.cw+word] &^= bit
		}
	}
}

// fitCover adds a cover word per processor when the needs outnumber
// the bits the index has.
func (h *horizonState) fitCover() {
	if len(h.needs) <= h.cw*64 {
		return
	}
	procs := len(h.block)
	cover := make([]uint64, procs*(h.cw+1))
	for p := 0; p < procs; p++ {
		copy(cover[p*(h.cw+1):], h.cover[p*h.cw:(p+1)*h.cw])
	}
	h.cw++
	h.cover = cover
}

// sweepNeeds removes the needRecs whose job is no longer a suspended
// idle job on the same set: it resumed, was committed, or lost its
// image. The last record fills each hole, so the records stay dense.
func (h *horizonState) sweepNeeds(cl *cluster.Cluster) {
	for i := 0; i < len(h.needs); {
		n := &h.needs[i]
		if sameSet(n.set, n.j.ProcSet) && suspendedIdle(n.j, cl) {
			i++
			continue
		}
		h.link(n.set, i, false)
		last := len(h.needs) - 1
		if i != last {
			h.needs[i] = h.needs[last]
			h.link(h.needs[i].set, last, false)
			h.link(h.needs[i].set, i, true)
		}
		h.needs[last] = needRec{}
		h.needs = h.needs[:last]
	}
}

// refreshNeeds recomputes the stale needs from the block map.
func (h *horizonState) refreshNeeds() {
	for i := range h.needs {
		n := &h.needs[i]
		if !n.stale {
			continue
		}
		need := -1.0
		for _, p := range n.set {
			need = max(need, h.block[p])
		}
		n.need = need
		n.stale = false
	}
}

// committed records a commit of idle job j with victims and claim for
// the rest of the preemption pass. The claim's processors, and the
// victims' sets, which turn Suspending, now block every reentry need
// covering them: those needs are held (+Inf) until the next reconcile,
// which writes the commit into the block map through the hardRecs. The
// pass reads the block map only for the sets of jobs whose need is not
// held, which no commit touched. The memoized covers are forgotten, so
// the victims suspended here no longer count.
func (h *horizonState) committed(j *job.Job, victims []*job.Job, claim []int) {
	for _, v := range victims {
		h.hold(v.ProcSet)
		h.hard = append(h.hard, hardRec{j: v, set: v.ProcSet})
	}
	h.hold(claim)
	h.hard = append(h.hard, hardRec{j: j, set: claim, claim: true})
	h.widths = h.widths[:0]
}

// hold marks held the needs covering a processor of set.
func (h *horizonState) hold(set []int) {
	for _, p := range set {
		for k, w := range h.cover[p*h.cw : (p+1)*h.cw] {
			for ; w != 0; w &= w - 1 {
				h.needs[k<<6|bits.TrailingZeros64(w)].held = h.gen
			}
		}
	}
}

// shortOf reports whether idle job j falls short, at this tick, of the
// xfactor any preemption it could commit requires: j.XFactor(now) <
// SF·need, against the need the kept state holds now. The preemption
// routine commits no such job; it commits every other one that does
// not fit (choose). A commit only holds needs and takes free processors
// and victims away, so a job short of its need at the horizon stays
// short during the pass.
func (s *Sched) shortOf(j *job.Job, now int64) bool {
	need := math.Inf(1)
	if s.reenters(j) {
		if n := s.reentryNeed(j); n >= 0 {
			need = n
		}
	} else {
		need = s.freshNeed(j.Procs)
	}
	return j.XFactor(now) < s.cfg.SF*need
}

// reentryNeed returns the kept reentry need of suspended idle job j,
// +Inf while a commit of the pass holds it. Every suspended idle job has
// one from the reconcile after it became idle (passMaximal checks
// this at every tick), so find does not return -1 here.
func (s *Sched) reentryNeed(j *job.Job) float64 {
	h := &s.hz
	if n := &h.needs[h.find(j)]; n.held != h.gen {
		return n.need
	}
	return math.Inf(1)
}

// freshNeed returns the xfactor an idle job of width w that does not
// fit in the free processors needs to commit a preemption: that of the
// victim at which its cover ends, +Inf when there is none.
func (s *Sched) freshNeed(w int) float64 {
	if i := s.cover(w); i >= 0 {
		return s.hz.victims[i].x
	}
	return math.Inf(1)
}

// cover returns the index of the victim at which, in ascending xfactor,
// the free processors plus the victims an idle job of width w may
// suspend (mayTake) first cover w, or -1 when they never do. The first
// call after a reconcile sorts the victims.
func (s *Sched) cover(w int) int {
	h := &s.hz
	if !h.sorted {
		slices.SortFunc(h.victims, byXThenID)
		h.widths = h.widths[:0]
		h.sorted = true
	}
	for _, m := range h.widths {
		if m.w == w {
			return m.at
		}
	}
	at := -1
	avail := s.env.Cluster.FreeUnclaimed()
	for i, v := range h.victims {
		if !s.mayTake(w, v.j) {
			continue
		}
		avail += v.j.Procs
		if avail >= w {
			at = i
			break
		}
	}
	h.widths = grow(h.widths)
	h.widths[len(h.widths)-1] = widthCover{w: w, at: at}
	return at
}

// mayTake reports whether a fresh idle job of width w may suspend
// victim v: v is still Running — not suspended by an earlier commit of
// the pass — and the half-width rule (Section IV-B) does not protect
// it.
func (s *Sched) mayTake(w int, v *job.Job) bool {
	return v.State == job.Running && (s.cfg.DisableHalfWidthRule || v.Procs <= 2*w)
}

// byXThenID orders victims by ascending xfactor, then job ID.
func byXThenID(a, b victimX) int {
	if c := cmp.Compare(a.x, b.x); c != 0 {
		return c
	}
	return cmp.Compare(a.j.ID, b.j.ID)
}
