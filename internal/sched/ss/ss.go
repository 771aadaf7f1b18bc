// Package ss implements the paper's Selective Suspension (SS) scheduler
// and its Tunable variant (TSS), wiring the core preemption policy into
// the event loop (Section IV):
//
//   - Idle jobs are served in descending xfactor order without
//     reservation guarantees; freedom from starvation comes from the
//     unbounded growth of a waiting job's xfactor (Section IV-B).
//   - Every minute the preemption routine runs (the paper's pseudocode):
//     fresh idle jobs collect enough low-priority victims, subject to the
//     suspension factor and the half-width fairness rule; previously
//     suspended jobs reacquire exactly their remembered processor set,
//     preempting its current holders if the SF condition allows.
//   - TSS additionally disables preemption of any job whose xfactor
//     exceeds 1.5× its category's average slowdown (Section IV-E),
//     bounding worst-case slowdowns.
package ss

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pjs/internal/core"
	"pjs/internal/job"
	"pjs/internal/perf"
	"pjs/internal/sched"
)

// Config parameterizes an SS/TSS scheduler.
type Config struct {
	// SF is the suspension factor (paper: 1.5, 2, 5).
	SF float64
	// Limits enables TSS with the given limit source; nil is plain SS.
	Limits core.LimitSource
	// Adaptive, if non-nil, is an online limit source that the
	// scheduler feeds with completed-job slowdowns (single-pass TSS).
	// When set it is also used as Limits.
	Adaptive *core.AdaptiveLimits
	// DisableHalfWidthRule turns off the wide-job fairness rule (for
	// ablation).
	DisableHalfWidthRule bool
	// Migration switches to the *migratable* preemption model of
	// Parsons & Sevcik: a suspended job may restart on any free
	// processors instead of exactly its old set. An ablation of the
	// paper's local-restart constraint — not available on the paper's
	// clusters, where process migration is not feasible.
	Migration bool
	// MaxSuspensions caps per-job suspensions (0 = unlimited), the
	// related-work mechanism of Chiang et al. ("at most once") that the
	// paper contrasts with its suspension-factor rate control.
	MaxSuspensions int
	// TickSeconds is the preemption-routine period; 0 means the
	// paper's 60 s.
	TickSeconds int64
}

// Sched is the SS/TSS policy.
type Sched struct {
	env     *sched.Env
	pol     core.Policy
	cfg     Config
	queue   []*job.Job // idle (fresh + suspended), excluding pending
	running []*job.Job // running or committed (pending starts)

	// idle holds the jobs a pass serves, in serving order (descending
	// xfactor): the whole queue at a tick (sortIdle), the jobs that fit
	// at an event (schedulePass). ord and healthy are scratch reused
	// across passes.
	idle    []*job.Job
	ord     job.Order
	healthy []*job.Job

	// Quiet-tick scratch, rebuilt by scanRunning for each horizon:
	// victims are the suspendable running jobs, in ascending xfactor
	// once sorted is set, holderX maps each processor to the xfactor of
	// its Running holder (+Inf when that holder is not suspendable, -1
	// when there is none), and needByWidth memoizes freshNeed (-1 = not
	// computed) while sorted is set.
	victims     []victimX
	sorted      bool
	holderX     []float64
	needByWidth []float64
}

// victimX is a suspendable running job with its xfactor at the horizon.
type victimX struct {
	x float64
	j *job.Job
}

// New returns an SS or TSS scheduler for the given configuration.
func New(cfg Config) *Sched {
	if cfg.Adaptive != nil {
		cfg.Limits = cfg.Adaptive
	}
	s := &Sched{
		cfg: cfg,
		pol: core.Policy{
			SF:                   cfg.SF,
			DisableHalfWidthRule: cfg.DisableHalfWidthRule,
			Limits:               cfg.Limits,
			MaxVictimSuspensions: cfg.MaxSuspensions,
		},
	}
	if err := s.pol.Validate(); err != nil {
		panic(err)
	}
	return s
}

// Name implements sched.Scheduler, e.g. "SS(SF=2)" or "TSS(SF=2)".
func (s *Sched) Name() string {
	kind := "SS"
	if s.cfg.Limits != nil {
		kind = "TSS"
	}
	if s.cfg.Migration {
		kind += "-mig"
	}
	return fmt.Sprintf("%s(SF=%g)", kind, s.cfg.SF)
}

// Migrates reports whether s resumes suspended jobs on any free
// processors (the migratable model) instead of their remembered set.
func (s *Sched) Migrates() bool { return s.cfg.Migration }

// Init implements sched.Scheduler.
func (s *Sched) Init(env *sched.Env) { s.env = env }

// TickInterval implements sched.Scheduler: the preemption routine runs
// every minute (Section IV-B).
func (s *Sched) TickInterval() int64 {
	if s.cfg.TickSeconds > 0 {
		return s.cfg.TickSeconds
	}
	return 60
}

// OnArrival implements sched.Scheduler.
func (s *Sched) OnArrival(j *job.Job) {
	s.queue = append(s.queue, j)
	s.schedulePass()
}

// OnCompletion implements sched.Scheduler.
func (s *Sched) OnCompletion(j *job.Job) {
	s.running = sched.Remove(s.running, j)
	if s.cfg.Adaptive != nil {
		s.cfg.Adaptive.Observe(j.EstimateCategory(), boundedSlowdown(j))
	}
	s.schedulePass()
}

// OnSuspendDone implements sched.Scheduler: the victim rejoins the idle
// queue and will reenter via the preemption routine or a free set.
func (s *Sched) OnSuspendDone(j *job.Job) {
	s.queue = append(s.queue, j)
	s.schedulePass()
}

// OnTick implements sched.Scheduler: the periodic preemption routine,
// then a schedule pass over what it left idle. Both passes share one
// xfactor order: an idle job's key is fixed at a fixed now, and the
// queue only shrinks during the tick — the preemption pass commits jobs
// out of it, and its victims rejoin it only at their later SuspendDone.
//
// The routine runs only once some idle job could commit a preemption:
// before that, OnTick asks the driver to skip ticks until the horizon
// (see horizon) and returns.
func (s *Sched) OnTick() {
	now := s.env.Now()
	if h := s.horizon(now); now < h && s.env.QuietUntil(h) {
		return
	}
	s.sortIdle()
	s.preemptionPass()
	span := s.env.Probe().Begin()
	s.serveIdle()
	s.env.Probe().End(perf.PhaseQueueScan, span)
}

// OnFailure implements sched.Scheduler: displaced jobs (killed victims,
// stranded images, aborted pending starts) rejoin the idle queue and
// compete again by xfactor; their restarted wait pushes the xfactor up,
// so SS naturally re-serves the most-hurt jobs first.
func (s *Sched) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		s.running = sched.Remove(s.running, j)
		if !sched.Contains(s.queue, j) {
			s.queue = append(s.queue, j)
		}
	}
	s.schedulePass()
}

// OnRepair implements sched.Scheduler: recovered capacity is offered to
// the idle queue immediately; the next tick's preemption routine sees
// it too.
func (s *Sched) OnRepair(int) { s.schedulePass() }

// schedulePass is the reservation-free backfilling step: idle jobs are
// scanned in descending xfactor and started whenever they fit without
// preemption — fresh jobs on any free processors, suspended jobs on
// their remembered set.
//
// Only the jobs that fit when the pass begins are sorted and served.
// Capacity only shrinks during the pass, so a job that does not fit at
// its start never fits later in it; and the xfactor order is total, so
// the jobs that do fit keep the relative order of a sort of the whole
// queue.
func (s *Sched) schedulePass() {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseQueueScan, span)
	s.idle = s.idle[:0]
	for _, j := range s.queue {
		if s.fits(j) {
			s.idle = append(s.idle, j)
		}
	}
	if len(s.idle) == 0 {
		return
	}
	sched.OrderByXFactor(&s.ord, s.idle, s.env.Now())
	s.serveIdle()
}

// fits reports whether idle job j can start now without preemption: a
// suspended job under local restart on its whole remembered set, any
// other on that many free processors.
func (s *Sched) fits(j *job.Job) bool {
	if j.State == job.Suspended && !s.cfg.Migration {
		return s.env.Cluster.SetFree(j.ID, j.ProcSet)
	}
	return j.Procs <= s.env.Cluster.FreeUnclaimed()
}

// sortIdle rebuilds s.idle as the whole queue in descending xfactor
// order, which the tick's preemption routine walks.
func (s *Sched) sortIdle() {
	s.idle = append(s.idle[:0], s.queue...)
	sched.OrderByXFactor(&s.ord, s.idle, s.env.Now())
}

// serveIdle starts every job of s.idle, in order, that fits without
// preemption.
func (s *Sched) serveIdle() {
	for _, j := range s.idle {
		started := false
		switch {
		case j.State != job.Suspended:
			started = s.env.StartFresh(j)
		case s.cfg.Migration:
			started = s.env.ResumeAnywhere(j)
		default:
			started = s.env.Resume(j)
		}
		if started {
			s.queue = sched.Remove(s.queue, j)
			s.running = append(s.running, j)
		}
	}
}

// preemptionPass is the paper's periodic preemption routine: the jobs
// of s.idle, in descending suspension priority, each attempt to obtain
// processors by suspending sufficiently lower-priority running jobs.
// Committed jobs are dropped from s.idle, which leaves it in serving
// order for the schedule pass that follows.
func (s *Sched) preemptionPass() {
	now := s.env.Now()
	kept := s.idle[:0]
	for _, j := range s.idle {
		var committed bool
		if j.State == job.Suspended && !s.cfg.Migration {
			committed = s.tryReentry(j, now)
		} else {
			// Under migration a suspended job competes for any
			// processors, exactly like a fresh one (the half-width
			// rule applies again — it exists to protect wide jobs and
			// the exact-set justification for waiving it is gone).
			committed = s.tryPreempt(j, now)
		}
		if !committed {
			kept = append(kept, j)
		}
	}
	s.idle = kept
}

// tryPreempt attempts to start fresh idle job j by suspending victims
// (the pseudocode's suspend_jobs_1 path) and reports whether it did.
func (s *Sched) tryPreempt(j *job.Job, now int64) bool {
	free := s.env.Cluster.FreeUnclaimed()
	if free >= j.Procs {
		return false // schedulePass will start it without suspending anyone
	}
	span := s.env.Probe().Begin()
	cands := s.running
	if s.env.IOHealthActive() {
		// Degraded-mode preemption: jobs on processors over the
		// transient-I/O failure threshold are not victim candidates —
		// their image write would likely fail. As failure rates rise the
		// candidate pool empties and SS degrades toward pure backfilling.
		s.healthy = s.healthy[:0]
		for _, r := range cands {
			if s.env.SetIOHealthy(r.ProcSet) {
				s.healthy = append(s.healthy, r)
			}
		}
		cands = s.healthy
	}
	victims, ok := s.pol.SelectVictims(now, j, cands, free)
	s.env.Probe().End(perf.PhaseVictimSelect, span)
	if !ok || len(victims) == 0 {
		return false
	}
	claim := s.env.Cluster.ListFreeUnclaimed(j.Procs)
	for _, v := range victims {
		for _, p := range v.ProcSet {
			if len(claim) == j.Procs {
				break
			}
			claim = append(claim, p)
		}
	}
	s.commit(j, victims, claim)
	return true
}

// tryReentry attempts to restart suspended job j on its remembered set
// by suspending the set's current holders (suspend_jobs_2) and reports
// whether it did.
func (s *Sched) tryReentry(j *job.Job, now int64) bool {
	cl := s.env.Cluster
	classify := func(proc int) (core.ReentryBlocked, *job.Job) {
		owner := cl.Owner(proc)
		if owner == -1 {
			if c := cl.Claimant(proc); c != -1 && c != j.ID {
				return core.ReentryHard, nil // reserved for a pending start
			}
			return core.ReentryFree, nil
		}
		holder := s.env.JobByID(owner)
		if holder.State != job.Running {
			return core.ReentryHard, nil // already suspending for someone else
		}
		if !s.env.SetIOHealthy(holder.ProcSet) {
			// The holder sits on I/O-degraded processors: suspending it
			// would likely fail the image write, so the set is treated as
			// hard-blocked until the health window clears.
			return core.ReentryHard, nil
		}
		return core.ReentryPreemptible, holder
	}
	span := s.env.Probe().Begin()
	victims, ok := s.pol.SelectReentryVictims(now, j, classify)
	s.env.Probe().End(perf.PhaseVictimSelect, span)
	if !ok || len(victims) == 0 {
		return false // fully free sets are handled by schedulePass
	}
	s.commit(j, victims, j.ProcSet)
	return true
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
// CanPreempt can never make a skipped tick one that would have acted.
//
// horizon carries no //lint:allocfree contract: scanRunning sizes its
// scratch with make and append, and freshNeed builds a comparator
// closure for its sort. Of its helpers only reentryNeed is marked.
func (s *Sched) horizon(now int64) int64 {
	if len(s.queue) == 0 {
		return math.MaxInt64 // nothing idle until an event
	}
	s.scanRunning(now)
	if len(s.victims) == 0 {
		return math.MaxInt64 // nothing to preempt until an event
	}
	tick := s.TickInterval()
	free := s.env.Cluster.FreeUnclaimed()
	minX := math.Inf(1) // no idle job needs less than the least victim xfactor
	for _, v := range s.victims {
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
			need = s.reentryNeed(j, now, best)
		} else {
			need = s.freshNeed(j.Procs, free)
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

// scanRunning rebuilds the quiet-tick scratch from the running jobs at
// time now, leaving the victims unsorted: only freshNeed reads their
// order, and most horizons never call it.
func (s *Sched) scanRunning(now int64) {
	n := s.env.Cluster.Size()
	if len(s.holderX) != n {
		s.holderX = make([]float64, n)
		s.needByWidth = make([]float64, n+1)
	}
	for p := range s.holderX {
		s.holderX[p] = -1
	}
	s.victims = s.victims[:0]
	s.sorted = false
	for _, r := range s.running {
		if r.State != job.Running {
			continue // a committed pending start holds nothing yet
		}
		x := r.XFactor(now)
		hx := math.Inf(1)
		if s.pol.Suspendable(r, x) && s.env.SetIOHealthy(r.ProcSet) {
			hx = x
			s.victims = append(s.victims, victimX{x: x, j: r})
		}
		for _, p := range r.ProcSet {
			s.holderX[p] = hx
		}
	}
}

// freshNeed returns the xfactor an idle job of width w that does not
// fit in the free processors needs to commit a preemption: that of the
// victim at which, in ascending xfactor, the free processors plus the
// victims the half-width rule lets it suspend first cover w; +Inf when
// they never do. The first call of a horizon sorts the victims.
func (s *Sched) freshNeed(w, free int) float64 {
	if !s.sorted {
		slices.SortFunc(s.victims, func(a, b victimX) int {
			if c := cmp.Compare(a.x, b.x); c != 0 {
				return c
			}
			return cmp.Compare(a.j.ID, b.j.ID)
		})
		for i := range s.needByWidth {
			s.needByWidth[i] = -1
		}
		s.sorted = true
	}
	if need := s.needByWidth[w]; need >= 0 {
		return need
	}
	need := math.Inf(1)
	avail := free
	for _, v := range s.victims {
		if !s.cfg.DisableHalfWidthRule && v.j.Procs > 2*w {
			continue
		}
		avail += v.j.Procs
		if avail >= w {
			need = v.x
			break
		}
	}
	s.needByWidth[w] = need
	return need
}

// reentryNeed returns the xfactor suspended job j needs to reclaim its
// remembered set: the largest xfactor among the set's holders; +Inf when
// a processor of the set is claimed by another job or held by a job
// that is not Running or not suspendable, or when nothing holds the set.
// need only grows along the walk, so it stops early, returning the need
// so far, once that alone puts the crossing no sooner than best.
//
//lint:allocfree always, a walk over the remembered set
func (s *Sched) reentryNeed(j *job.Job, now, best int64) float64 {
	cl := s.env.Cluster
	need := 0.0
	for _, p := range j.ProcSet {
		x := s.holderX[p]
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

// commit removes j from the idle queue, books the victims out of the
// running list and hands the preemption to the environment.
func (s *Sched) commit(j *job.Job, victims []*job.Job, claim []int) {
	for _, v := range victims {
		s.running = sched.Remove(s.running, v)
	}
	s.queue = sched.Remove(s.queue, j)
	s.running = append(s.running, j)
	s.env.PreemptAndStart(j, victims, claim)
}

// boundedSlowdown is the Eq. 1 metric with the 10 s threshold, computed
// on a finished job (duplicated from package metrics to keep the
// scheduler free of a metrics dependency).
func boundedSlowdown(j *job.Job) float64 {
	run := j.RunTime
	if run < 10 {
		run = 10
	}
	sd := float64(j.Turnaround()) / float64(run)
	if sd < 1 {
		sd = 1
	}
	return sd
}
