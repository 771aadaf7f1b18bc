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
//     value over its remembered set, -1 when the whole set is free, and
//     the instant its xfactor crosses SF times that need;
//   - the victims: the suspendable, I/O-healthy Running jobs, in
//     ascending (xfactor, ID) order, whose prefixes the fresh jobs need.
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
//
// Nothing is rescanned: every change reaches the state through the
// change log SS fills from its own hooks and primitives (started, left,
// stale, entered, cats) and through the few records whose value moves with
// time or with the machine (reading, flips), and a reconcile applies
// only those.
type horizonState struct {
	// gen numbers the reconciles: it stamps the needs held since the
	// current one.
	gen uint32

	block  []float64 // per processor, the block map
	ownRec []int32   // per processor, the ownerRec that holds it, -1 none

	owners []ownerRec
	hard   []hardRec // claims and suspending victims, in commit order

	// reading lists the Running jobs whose restart read was in progress
	// when their value was last taken: their xfactor still grows.
	reading []incarnation

	// The change log since the last reconcile: started lists the jobs
	// SS started or resumed, left the first processor of each Running
	// job SS saw stop running, stale the processors of the records
	// dropped early (forget), entered the jobs that became suspended
	// idle jobs, and bit c of cats is set when category c's TSS limit
	// may have moved. flips is the driver's I/O health flip count at the
	// last reconcile.
	started []*job.Job
	left    []int
	ended   []int32 // scratch: the ownerRecs left names, while a reconcile drops them
	stale   []int   // the processors of the records forget dropped
	entered []*job.Job
	cats    uint16
	flips   int

	// needs are the reentry needs; changed lists those whose value or
	// crossing the current reconcile must recompute; heap orders them by
	// crossing instant; bit i of processor p's cw cover words is set
	// when needs[i] covers p.
	needs   []needRec
	changed []int32
	heap    []int32
	cw      int
	cover   []uint64

	// victims are the suspendable, I/O-healthy Running jobs in
	// ascending (xfactor, ID) order; widths memoizes cover until the
	// next reconcile or commit.
	victims []victimX
	widths  []widthCover

	// commitOf is per processor the number of the last commit whose
	// victims' sets hold it; commits counts the commits.
	commitOf []uint64
	commits  uint64
}

// victimX is a suspendable running job with its xfactor.
type victimX struct {
	x float64
	j *job.Job
}

// widthCover is a memoized cover.
type widthCover struct {
	w, at int
}

// incarnation names one dispatch of a job: its Epoch changes whenever
// the job starts, resumes, is suspended, killed or finishes.
type incarnation struct {
	j     *job.Job
	epoch int
}

// ownerRec is Running job j's contribution to the block map: the set it
// holds and the value written there, its xfactor or +Inf. It lives as
// long as the incarnation it was made for.
type ownerRec struct {
	incarnation
	set []int
	x   float64
}

// hardRec is a claim of a pending start, or the set of a suspending
// victim, from its commit until the start or the suspension ends.
// seen records that a reconcile has applied its set since the commit.
type hardRec struct {
	incarnation
	set   []int
	claim bool
	seen  bool
}

// needRec is one suspended idle job's reentry need, kept for the
// incarnation whose suspension left the job idle. at is the instant the
// job's xfactor reaches SF·need, math.MaxInt64 when it never does (a
// free set, an infinite need): an idle job's wait grows one second per
// second, so the instant is fixed while the need is. fell marks a need
// that a fall in the block map may have lowered, so the reconcile
// recomputes it from the set; queued marks it listed in changed. held
// is the gen of the reconcile after which a commit claimed a processor
// of the set or suspended its holder: until the next reconcile the need
// is +Inf. pos is its index in heap.
type needRec struct {
	incarnation
	set    []int
	need   float64
	at     int64
	held   uint32
	pos    int32
	fell   bool
	queued bool
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
	idle := len(s.env.Idle()) > 0
	if idle || len(s.hz.left)+len(s.hz.started)+len(s.hz.stale) > len(s.hz.block) {
		s.reconcile(now) // with nothing idle, to keep the change log within the machine's size
	}
	if idle {
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
// kept needs give theirs at once, the least kept instant; a fresh job
// that does not fit is skipped when its crossing at the least victim
// xfactor cannot beat the best so far.
func (s *Sched) earliestCrossing(now int64) int64 {
	h := &s.hz
	tick := s.TickInterval()
	best := int64(math.MaxInt64)
	if len(h.heap) > 0 {
		if at := h.needs[h.heap[0]].at; at != math.MaxInt64 {
			best = at - now
		}
	}
	if best <= tick {
		return best
	}
	minX := math.Inf(1)
	if len(h.victims) > 0 {
		minX = h.victims[0].x
	}
	free := s.env.Cluster.FreeUnclaimed()
	for _, j := range s.env.Idle() {
		if s.reenters(j) || j.Procs <= free {
			continue // a need above, or fits without preemption
		}
		if s.cfg.crossing(now, j, minX) >= best {
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

// reconcile brings the kept state up to date at time now from the
// change log: it adds a record for each job that started, drops those
// of the jobs that stopped running, applies the claims and victims that
// began or ended, re-values the records whose value may have moved,
// adds the needs of the jobs that became suspended idle jobs, and
// recomputes the needs and crossings those changes reached.
// A rise at a processor raises the needs covering it in place; a fall
// marks only the needs that equalled the old value, and those are
// recomputed from their sets at the end.
func (s *Sched) reconcile(now int64) {
	h := &s.hz
	cl := s.env.Cluster
	h.size(cl.Size())
	h.gen++
	h.widths = h.widths[:0]
	// The records of the jobs that stopped go after those of the jobs
	// that started are in, so that a processor passed from one job to
	// the next moves from the old value straight to the new one, without
	// a fall to free in between that would have its needs recomputed.
	h.findEnded()
	for _, r := range h.hard {
		if r.claim && cl.Claimant(r.set[0]) != r.j.ID {
			s.keepOwner(r.j, now) // the pending start may have begun
		}
	}
	for _, j := range h.started {
		s.keepOwner(j, now)
	}
	clear(h.started)
	h.started = h.started[:0]
	h.dropEnded(cl)
	h.sweepHard(cl)
	h.apply(h.stale, cl)
	h.stale = h.stale[:0]
	s.revalue(now)
	for _, j := range h.entered {
		if s.reenters(j) && suspendedIdle(j, cl) && h.find(j) < 0 {
			h.addNeed(j)
		}
	}
	clear(h.entered)
	h.entered = h.entered[:0]
	s.refreshNeeds(now)
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
	h.commitOf = make([]uint64, n)
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

// value returns Running job r's block value at time now: its xfactor
// when r is suspendable and on I/O-healthy processors, +Inf otherwise.
func (s *Sched) value(r *job.Job, now int64) float64 {
	if x := r.XFactor(now); s.cfg.suspendable(r, x) && s.env.SetIOHealthy(r.ProcSet) {
		return x
	}
	return math.Inf(1)
}

// keepOwner adds the ownerRec of job r when r runs and its incarnation
// has none yet, and applies its set. Running jobs hold disjoint sets, so
// r's record, if any, is the one its first processor names.
func (s *Sched) keepOwner(r *job.Job, now int64) {
	h := &s.hz
	if r.State != job.Running {
		return // stopped again before this reconcile
	}
	set := r.ProcSet
	if i := h.ownRec[set[0]]; i >= 0 && h.owners[i].incarnation == (incarnation{r, r.Epoch}) {
		return
	}
	v := s.value(r, now)
	h.owners = grow(h.owners)
	i := int32(len(h.owners) - 1)
	h.owners[i] = ownerRec{incarnation: incarnation{r, r.Epoch}, set: set, x: v}
	for _, p := range set {
		h.ownRec[p] = i
	}
	h.addVictim(v, r)
	if mayGrow(r, now) {
		h.reading = grow(h.reading)
		h.reading[len(h.reading)-1] = incarnation{r, r.Epoch}
	}
	h.apply(set, s.env.Cluster)
}

// mayGrow reports whether Running job r's xfactor may still grow after
// now: its restart read has not ended, or ends now and a failed read may
// still extend it.
func mayGrow(r *job.Job, now int64) bool {
	return r.PendingRead > 0 && now <= r.LastDispatch+r.PendingRead
}

// findEnded lists in ended, in ascending order and once each, the
// ownerRecs that the processors in left name and whose job has stopped
// running since.
func (h *horizonState) findEnded() {
	for _, p := range h.left {
		if i := h.ownRec[p]; i >= 0 && h.owners[i].j.Epoch != h.owners[i].epoch {
			h.ended = grow(h.ended)
			h.ended[len(h.ended)-1] = i
		}
	}
	h.left = h.left[:0]
	slices.Sort(h.ended)
	h.ended = slices.Compact(h.ended)
}

// dropEnded removes the ownerRecs listed in ended and applies their
// sets. The last record fills each hole, so the records stay dense;
// removing the highest index first leaves the others in place.
func (h *horizonState) dropEnded(cl *cluster.Cluster) {
	for k := len(h.ended) - 1; k >= 0; k-- {
		h.apply(h.dropOwner(h.ended[k]), cl)
	}
	h.ended = h.ended[:0]
}

// dropOwner removes owners[i] and its victim entry and returns its set,
// which the caller applies. The last record fills the hole.
func (h *horizonState) dropOwner(i int32) []int {
	o := h.owners[i]
	h.relabel(o.set, i, -1)
	last := int32(len(h.owners) - 1)
	if i != last {
		h.owners[i] = h.owners[last]
		h.relabel(h.owners[i].set, last, i)
	}
	h.owners[last] = ownerRec{}
	h.owners = h.owners[:last]
	h.dropVictim(o.x, o.j)
	return o.set
}

// forget drops the records of idle job j that a reconcile would drop,
// its ownerRecs and its ended hardRecs, and keeps their processors in
// stale for the next reconcile to apply: the driver writes every set of
// a job into the same region, so a job that starts again would rewrite
// the sets the records name. A live claim stays: it is a migrating
// job's own copy, which no start rewrites. The needs change only in a
// reconcile, as the block map does.
func (h *horizonState) forget(j *job.Job, cl *cluster.Cluster) {
	for i := int32(len(h.owners)) - 1; i >= 0; i-- {
		if h.owners[i].j == j {
			h.stale = append(h.stale, h.dropOwner(i)...)
		}
	}
	n := 0
	for _, r := range h.hard {
		if r.j == j && !r.live(cl) {
			h.stale = append(h.stale, r.set...)
			continue
		}
		h.hard[n] = r
		n++
	}
	clear(h.hard[n:])
	h.hard = h.hard[:n]
}

// relabel points the processors of set that ownRec maps to from at to.
func (h *horizonState) relabel(set []int, from, to int32) {
	for _, p := range set {
		if h.ownRec[p] == from {
			h.ownRec[p] = to
		}
	}
}

// revalue takes the value of every ownerRec whose value may have moved
// since the last reconcile: those of jobs still in their restart read,
// those of the categories whose TSS limit moved, and all of them after
// a processor's I/O health flipped.
func (s *Sched) revalue(now int64) {
	h := &s.hz
	if flips := s.env.IOHealthFlips(); flips != h.flips {
		h.flips = flips
		h.cats = math.MaxUint16 // every category
	}
	if h.cats != 0 {
		for i := range h.owners {
			if h.cats&(1<<h.owners[i].j.EstimateCategory().Index()) != 0 {
				s.revalueOwner(i, now)
			}
		}
		h.cats = 0
	}
	n := 0
	for _, r := range h.reading {
		if r.j.Epoch != r.epoch {
			continue // stopped running; its record went with it
		}
		s.revalueOwner(int(h.ownRec[r.j.ProcSet[0]]), now)
		if mayGrow(r.j, now) {
			h.reading[n] = r
			n++
		}
	}
	clear(h.reading[n:])
	h.reading = h.reading[:n]
}

// revalueOwner rewrites owners[i] and its set when its job's value at
// now differs from the one kept.
func (s *Sched) revalueOwner(i int, now int64) {
	h := &s.hz
	o := &h.owners[i]
	v := s.value(o.j, now)
	if v == o.x {
		return
	}
	h.dropVictim(o.x, o.j)
	h.addVictim(v, o.j)
	o.x = v
	h.apply(o.set, s.env.Cluster)
}

// addVictim inserts running job j, whose block value is x, at its
// (x, ID) place among the victims when x is finite.
func (h *horizonState) addVictim(x float64, j *job.Job) {
	if math.IsInf(x, 1) {
		return
	}
	i, _ := slices.BinarySearchFunc(h.victims, victimX{x: x, j: j}, byXThenID)
	h.victims = grow(h.victims)
	copy(h.victims[i+1:], h.victims[i:])
	h.victims[i] = victimX{x: x, j: j}
}

// dropVictim removes running job j, whose block value was x, from the
// victims when x is finite.
func (h *horizonState) dropVictim(x float64, j *job.Job) {
	if math.IsInf(x, 1) {
		return
	}
	i, _ := slices.BinarySearchFunc(h.victims, victimX{x: x, j: j}, byXThenID)
	last := len(h.victims) - 1
	copy(h.victims[i:], h.victims[i+1:])
	h.victims[last] = victimX{}
	h.victims = h.victims[:last]
}

// live reports whether hardRec r has not ended. A claim lives while its
// job still claims its first processor (claims are taken and dropped
// whole); a victim lives while its suspension is under way.
func (r *hardRec) live(cl *cluster.Cluster) bool {
	if r.claim {
		return cl.Claimant(r.set[0]) == r.j.ID
	}
	return r.j.Epoch == r.epoch && r.j.State == job.Suspending
}

// sweepHard applies the sets of the hardRecs that began or ended since
// the last reconcile and drops the ended ones.
func (h *horizonState) sweepHard(cl *cluster.Cluster) {
	n := 0
	for _, r := range h.hard {
		live := r.live(cl)
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
// or a claim on it. Applying reads the current state, so each processor
// ends at its value in it whatever the order of the applies.
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
// moving from ob to nb: a rise raises each below nb, a fall marks each
// that equalled ob (p may have been its maximum). Both list the need
// for refreshNeeds.
func (h *horizonState) carry(p int, ob, nb float64) {
	for k, w := range h.cover[p*h.cw : (p+1)*h.cw] {
		for ; w != 0; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			n := &h.needs[i]
			switch {
			case nb > ob && nb > n.need:
				n.need = nb
			case nb < ob && n.need == ob:
				n.fell = true
			default:
				continue
			}
			h.mark(i)
		}
	}
}

// mark lists needs[i] for refreshNeeds, once.
func (h *horizonState) mark(i int) {
	if n := &h.needs[i]; !n.queued {
		n.queued = true
		h.changed = grow(h.changed)
		h.changed[len(h.changed)-1] = int32(i)
	}
}

// refreshNeeds recomputes the listed needs: from the block map those
// that fell, and the crossing instant of each.
func (s *Sched) refreshNeeds(now int64) {
	h := &s.hz
	for _, i := range h.changed {
		n := &h.needs[i]
		if n.fell {
			n.need = h.maxBlock(n.set)
		}
		n.fell, n.queued = false, false
		n.at = math.MaxInt64
		if n.need >= 0 {
			if d := s.cfg.crossing(now, n.j, n.need); d != math.MaxInt64 {
				n.at = now + d
			}
		}
		h.fix(int(n.pos))
	}
	h.changed = h.changed[:0]
}

// maxBlock returns the largest block value over set, -1 when it is all
// free. Block values are never NaN, so plain comparisons suffice, and
// the walk stops at the first +Inf, which nothing exceeds.
func (h *horizonState) maxBlock(set []int) float64 {
	need := -1.0
	for _, p := range set {
		if b := h.block[p]; b > need {
			if math.IsInf(b, 1) {
				return b
			}
			need = b
		}
	}
	return need
}

// find returns the needRec index of suspended job j, or -1. The record,
// if any, covers the first processor of j's set.
func (h *horizonState) find(j *job.Job) int {
	if len(h.needs) == 0 || len(j.ProcSet) == 0 {
		return -1
	}
	p := j.ProcSet[0]
	for k, w := range h.cover[p*h.cw : (p+1)*h.cw] {
		for ; w != 0; w &= w - 1 {
			if i := k<<6 | bits.TrailingZeros64(w); h.needs[i].j == j {
				return i
			}
		}
	}
	return -1
}

// addNeed adds a needRec for suspended idle job j, linked into the
// cover index and the heap and listed as fallen, so that refreshNeeds
// computes it.
func (h *horizonState) addNeed(j *job.Job) {
	h.needs = grow(h.needs)
	h.fitCover()
	i := len(h.needs) - 1
	h.needs[i] = needRec{incarnation: incarnation{j, j.Epoch}, set: j.ProcSet, at: math.MaxInt64, fell: true}
	h.link(j.ProcSet, i, true)
	h.heap = grow(h.heap)
	h.heap[len(h.heap)-1] = int32(i)
	h.needs[i].pos = int32(len(h.heap) - 1)
	h.mark(i)
}

// dropNeed removes the needRec of job j, if any: it resumed, or a commit
// took it out of the idle queue.
func (h *horizonState) dropNeed(j *job.Job) {
	if i := h.find(j); i >= 0 {
		h.removeNeed(i)
	}
}

// dropLost removes the needRecs covering processor p whose job lost its
// image: a failure of p invalidates every suspended job whose remembered
// set holds p.
func (h *horizonState) dropLost(p int) {
	for i := h.lostAt(p); i >= 0; i = h.lostAt(p) {
		h.removeNeed(i)
	}
}

// lostAt returns the index of a needRec covering processor p whose job
// has left the incarnation it was kept for, or -1.
func (h *horizonState) lostAt(p int) int {
	if len(h.needs) == 0 {
		return -1
	}
	for k, w := range h.cover[p*h.cw : (p+1)*h.cw] {
		for ; w != 0; w &= w - 1 {
			if i := k<<6 | bits.TrailingZeros64(w); h.needs[i].j.Epoch != h.needs[i].epoch {
				return i
			}
		}
	}
	return -1
}

// removeNeed unlinks needs[i] from the cover index and the heap. The
// last record fills the hole, so the records stay dense.
func (h *horizonState) removeNeed(i int) {
	n := &h.needs[i]
	h.link(n.set, i, false)
	h.heapRemove(int(n.pos))
	last := len(h.needs) - 1
	if i != last {
		h.needs[i] = h.needs[last]
		h.link(h.needs[i].set, last, false)
		h.link(h.needs[i].set, i, true)
		h.heap[h.needs[i].pos] = int32(i)
	}
	h.needs[last] = needRec{}
	h.needs = h.needs[:last]
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

// The heap is a binary min-heap of need indices on their crossing
// instants; needs[i].pos is the place of i in it.

// fix restores the heap order after the key at place k changed.
func (h *horizonState) fix(k int) {
	if !h.up(k) {
		h.down(k)
	}
}

// heapRemove takes the entry at place k out of the heap.
func (h *horizonState) heapRemove(k int) {
	last := len(h.heap) - 1
	if k != last {
		h.swap(k, last)
	}
	h.heap = h.heap[:last]
	if k != last {
		h.fix(k)
	}
}

// up moves the entry at place k towards the root while it is less than
// its parent, and reports whether it moved.
func (h *horizonState) up(k int) bool {
	moved := false
	for k > 0 {
		parent := (k - 1) / 2
		if h.needs[h.heap[k]].at >= h.needs[h.heap[parent]].at {
			break
		}
		h.swap(k, parent)
		k, moved = parent, true
	}
	return moved
}

// down moves the entry at place k towards the leaves while a child is
// less than it.
func (h *horizonState) down(k int) {
	for {
		c := 2*k + 1
		if c >= len(h.heap) {
			return
		}
		if r := c + 1; r < len(h.heap) && h.needs[h.heap[r]].at < h.needs[h.heap[c]].at {
			c = r
		}
		if h.needs[h.heap[c]].at >= h.needs[h.heap[k]].at {
			return
		}
		h.swap(k, c)
		k = c
	}
}

// swap exchanges the heap entries at places a and b.
func (h *horizonState) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.needs[h.heap[a]].pos = int32(a)
	h.needs[h.heap[b]].pos = int32(b)
}

// committed records a commit of idle job j with victims and claim for
// the rest of the preemption pass. The claim's processors, and the
// victims' sets, which turn Suspending, now block every reentry need
// covering them: those needs are held (+Inf) until the next reconcile,
// which writes the commit into the block map through the hardRecs and
// drops the victims' owner records. j, no longer idle, loses its own
// need. The memoized covers are forgotten, so the victims suspended
// here no longer count.
//
// The claim mostly overlaps the victims' sets: a fresh job claims the
// free processors and then its victims', a reentering job its set, most
// of which its victims hold. Each processor of the union is held once:
// the victims' processors record the commit's number in commitOf, and
// the claim's processors that carry it are skipped. The sets decide,
// not the cluster, which under zero overhead already gives the claim
// to j.
func (h *horizonState) committed(j *job.Job, victims []*job.Job, claim []int) {
	h.commits++
	for _, v := range victims {
		for _, p := range v.ProcSet {
			h.commitOf[p] = h.commits
			h.hold(p)
		}
		h.hard = append(h.hard, hardRec{incarnation: incarnation{v, v.Epoch}, set: v.ProcSet})
		h.left = append(h.left, v.ProcSet[0])
	}
	for _, p := range claim {
		if h.commitOf[p] != h.commits {
			h.hold(p)
		}
	}
	h.hard = append(h.hard, hardRec{incarnation: incarnation{j, j.Epoch}, set: claim, claim: true})
	h.widths = h.widths[:0]
	h.dropNeed(j)
}

// hold marks held the needs covering processor p.
func (h *horizonState) hold(p int) {
	for k, w := range h.cover[p*h.cw : (p+1)*h.cw] {
		for ; w != 0; w &= w - 1 {
			h.needs[k<<6|bits.TrailingZeros64(w)].held = h.gen
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
// suspend (mayTake) first cover w, or -1 when they never do.
func (s *Sched) cover(w int) int {
	h := &s.hz
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
