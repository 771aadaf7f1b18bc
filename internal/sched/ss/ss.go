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
//
// The policy keeps no list of idle or running jobs: it decides from the
// driver's (sched.Env.Idle, sched.Env.Running), which the driver keeps
// through starts, commits, suspensions and failures. Who may suspend
// whom is one record, the state the quiet-tick horizon keeps between
// ticks (horizon.go): per processor, the xfactor of a holder that may
// be suspended, and the suspendable running jobs in ascending xfactor.
// The horizon reads it to skip ticks on which no preemption can happen,
// and the preemption routine commits from it.
package ss

import (
	"fmt"
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
	env *sched.Env
	pol core.Policy
	cfg Config

	// idle holds the jobs a pass serves, in serving order (descending
	// xfactor): the jobs that fit or that shortOf does not reject at a
	// tick (sortIdle), the jobs that fit at an event (schedulePass). ord
	// and chosen (the victims of a commit) are scratch reused across
	// passes.
	idle   []*job.Job
	ord    job.Order
	chosen []*job.Job

	// hz is the quiet-tick state kept between horizons (horizon.go).
	hz horizonState
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

// Init implements sched.Scheduler. It drops any state kept from an
// earlier run.
func (s *Sched) Init(env *sched.Env) {
	s.env = env
	s.hz = horizonState{}
}

// TickInterval implements sched.Scheduler: the preemption routine runs
// every minute (Section IV-B).
func (s *Sched) TickInterval() int64 {
	if s.cfg.TickSeconds > 0 {
		return s.cfg.TickSeconds
	}
	return 60
}

// OnArrival implements sched.Scheduler.
func (s *Sched) OnArrival(*job.Job) { s.schedulePass() }

// OnCompletion implements sched.Scheduler.
func (s *Sched) OnCompletion(j *job.Job) {
	if s.cfg.Adaptive != nil {
		s.cfg.Adaptive.Observe(j.EstimateCategory(), j.BoundedSlowdown())
	}
	s.schedulePass()
}

// OnSuspendDone implements sched.Scheduler: the victim is idle again
// and will reenter via the preemption routine or a free set.
func (s *Sched) OnSuspendDone(j *job.Job) {
	s.enteredIdle(j)
	s.schedulePass()
}

// OnTick implements sched.Scheduler: the periodic preemption routine,
// then a schedule pass over what it left idle. Both passes share one
// xfactor order: an idle job's key is fixed at a fixed now, and the idle
// jobs only decrease during the tick — the preemption pass commits jobs
// out of them, and its victims become idle only at their later
// SuspendDone.
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
// stranded images, aborted pending starts) are idle again and compete
// by xfactor; their restarted wait pushes the xfactor up, so SS
// naturally re-serves the most-hurt jobs first.
func (s *Sched) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		s.enteredIdle(j)
	}
	s.schedulePass()
}

// enteredIdle notes idle job j for the next horizon when it is a
// suspended job under local restart, whose reentry need the horizon
// keeps. Of the jobs a failure displaces, only an aborted pending
// resume is one; the others are Queued.
func (s *Sched) enteredIdle(j *job.Job) {
	if s.reenters(j) {
		s.hz.entered = append(s.hz.entered, j)
	}
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
	for _, j := range s.env.Idle() {
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

// sortIdle rebuilds s.idle as the idle jobs the tick can act on, in
// descending xfactor order: those that fit, which the schedule pass may
// start, and those shortOf does not reject, which the preemption
// routine may commit. The rest can do neither during the tick. Capacity
// only shrinks during it, so a job that does not fit at its start never
// fits later; and shortOf reads only the state the horizon kept and the
// job's own xfactor, so it rejects the job in the routine too. The
// xfactor order is total, so the jobs kept keep their relative order.
func (s *Sched) sortIdle() {
	now := s.env.Now()
	s.idle = s.idle[:0]
	for _, j := range s.env.Idle() {
		if s.fits(j) || !s.shortOf(j, now) {
			s.idle = append(s.idle, j)
		}
	}
	sched.OrderByXFactor(&s.ord, s.idle, now)
}

// serveIdle starts every job of s.idle, in order, that fits without
// preemption.
func (s *Sched) serveIdle() {
	for _, j := range s.idle {
		switch {
		case j.State != job.Suspended:
			s.env.StartFresh(j)
		case s.cfg.Migration:
			s.env.ResumeAnywhere(j)
		default:
			s.env.Resume(j)
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
		if victims, claim := s.choose(j, now); len(victims) > 0 {
			s.commit(j, victims, claim)
		} else {
			kept = append(kept, j)
		}
	}
	s.idle = kept
}

// choose returns the victims and the claim with which idle job j
// commits a preemption now, or no victims when it commits none: a fresh
// job that fits starts in the schedule pass instead, and no job that
// shortOf rejects can commit. Any other job commits, and the kept state
// names its victims:
//
//   - a fresh job (suspend_jobs_1) takes the victims it may suspend up
//     to its cover, all within the SF ratio because shortOf passed,
//     trimmed largest first, and claims the free processors and as
//     many of the victims' as it needs. Under migration a suspended job
//     competes the same way: the half-width rule applies again, since
//     the exact-set reason for waiving it is gone;
//   - a reentering job (suspend_jobs_2) takes the distinct holders of
//     its remembered set, in set order, and claims the set.
func (s *Sched) choose(j *job.Job, now int64) ([]*job.Job, []int) {
	reentry := s.reenters(j)
	if !reentry && j.Procs <= s.env.Cluster.FreeUnclaimed() || s.shortOf(j, now) {
		return nil, nil
	}
	span := s.env.Probe().Begin()
	var victims []*job.Job
	if reentry {
		victims = s.holders(j)
	} else {
		victims = s.coverVictims(j)
	}
	s.env.Probe().End(perf.PhaseVictimSelect, span)
	if reentry {
		return victims, j.ProcSet
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
	return victims, claim
}

// coverVictims returns the victims of fresh idle job j: those of the
// ascending victims up to j's cover that j may suspend, trimmed largest
// first.
func (s *Sched) coverVictims(j *job.Job) []*job.Job {
	chosen := s.chosen[:0]
	for _, v := range s.hz.victims[:s.cover(j.Procs)+1] {
		if s.mayTake(j.Procs, v.j) {
			chosen = append(chosen, v.j)
		}
	}
	s.chosen = chosen
	return core.SelectVictims(chosen, j.Procs, s.env.Cluster.FreeUnclaimed())
}

// holders returns the victims of reentering job j: the distinct
// holders of its remembered set, in set order, through the owner
// records of the block map.
func (s *Sched) holders(j *job.Job) []*job.Job {
	h := &s.hz
	victims := s.chosen[:0]
	for _, p := range j.ProcSet {
		if h.block[p] < 0 {
			continue // free
		}
		if v := h.owners[h.ownRec[p]].j; !slices.Contains(victims, v) {
			victims = append(victims, v)
		}
	}
	s.chosen = victims
	return victims
}

// commit hands the preemption to the environment and records it in the
// kept state.
func (s *Sched) commit(j *job.Job, victims []*job.Job, claim []int) {
	s.env.PreemptAndStart(j, victims, claim)
	s.hz.committed(j, victims, claim)
}
