// Package ss implements the paper's Selective Suspension (SS) scheduler
// and its Tunable variant (TSS), the paper's primary contribution
// (Section IV):
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
// Config holds every knob of the rule, and its methods state the rule
// itself: which running jobs any idle job may suspend at all
// (suspendable) and when an idle job's xfactor reaches SF times the
// xfactor it needs (crossing). Keeping them pure makes them directly
// testable against the paper's claims (e.g. the s = (n+2)/(n+1)
// suspension-count boundary of Section IV-A, see package theory).
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
	"cmp"
	"fmt"
	"math"
	"slices"

	"pjs/internal/job"
	"pjs/internal/perf"
	"pjs/internal/sched"
)

// Config parameterizes an SS/TSS scheduler.
type Config struct {
	// SF is the suspension factor: the minimum ratio of the idle job's
	// priority to the running job's priority for preemption (the paper
	// evaluates 1.5, 2 and 5; values below 2 allow repeated swapping
	// of equal jobs, Section IV-A).
	SF float64
	// Limits enables TSS with the given limit source; nil is plain SS.
	// An *AdaptiveLimits is fed the slowdown of every completed job
	// (single-pass TSS).
	Limits LimitSource
	// DisableHalfWidthRule turns off the Section IV-B fairness rule
	// that a fresh idle job may only suspend running jobs at most
	// twice its own width (the rule protects wide jobs from being
	// suspended by narrow ones; for ablation). The rule never applies
	// to reentry.
	DisableHalfWidthRule bool
	// Migration switches to the *migratable* preemption model of
	// Parsons & Sevcik: a suspended job may restart on any free
	// processors instead of exactly its old set. An ablation of the
	// paper's local-restart constraint — not available on the paper's
	// clusters, where process migration is not feasible.
	Migration bool
	// MaxSuspensions caps how many times a job may be suspended over
	// its lifetime (0 = unlimited). The paper contrasts its
	// suspension-factor control against exactly this mechanism: Chiang
	// et al.'s run-to-completion policy "allows a job to be suspended
	// at most once" (MaxSuspensions = 1), whereas SS controls the
	// *rate* of suspensions without limiting their number.
	MaxSuspensions int
	// TickSeconds is the preemption-routine period; 0 means the
	// paper's 60 s.
	TickSeconds int64
}

// validate reports whether the configuration is usable.
func (c *Config) validate() error {
	if c.SF < 1 {
		return fmt.Errorf("ss: suspension factor %v < 1 would let lower-priority jobs preempt", c.SF)
	}
	return nil
}

// suspendable reports whether the running victim, whose xfactor is xf,
// may be suspended by any idle job: it is under MaxSuspensions and,
// under TSS, within its category's limit.
func (c *Config) suspendable(victim *job.Job, xf float64) bool {
	if c.MaxSuspensions > 0 && victim.Suspensions >= c.MaxSuspensions {
		return false
	}
	if c.Limits != nil {
		// TSS: preemption of a job is disabled when its priority
		// exceeds 1.5× the average slowdown of its category. The
		// scheduler has no oracle for the true run time, so the
		// category is the one implied by the user estimate.
		if lim, ok := c.Limits.Limit(victim.EstimateCategory()); ok && xf > lim {
			return false
		}
	}
	return true
}

// crossing returns how many seconds after now the xfactor of idle — a
// Queued or Suspended job, whose wait grows one second per second —
// reaches SF·need, the point from which the SF condition — idle's
// xfactor at least SF times the victim's — can hold against a victim
// whose xfactor is need:
//
//	d = ceil(SF·need·est) − Wait(now) − est
//
// with est the estimate clamped to at least one second, as in XFactor.
// d ≤ 0 means idle is already there; an infinite need gives
// math.MaxInt64. SF·need·est is rounded in floating point, which can
// make d a second late, so a caller that skips work before the crossing
// keeps a margin. The ceiling is clamped to 2^52 s, where a float stops
// resolving single seconds; the clamp only makes d earlier.
func (c *Config) crossing(now int64, idle *job.Job, need float64) int64 {
	est := idle.Estimate
	if est < 1 {
		est = 1
	}
	f := math.Ceil(c.SF * need * float64(est))
	if math.IsInf(f, 1) {
		return math.MaxInt64
	}
	f = min(f, 1<<52)
	return int64(f) - idle.Wait(now) - est
}

// Sched is the SS/TSS policy.
type Sched struct {
	env *sched.Env
	cfg Config

	// idle holds the jobs a pass serves, in serving order (descending
	// xfactor): the jobs that fit or that shortOf does not reject at a
	// tick (sortIdle), the jobs that fit at an event (schedulePass). ord,
	// chosen (the victims of a commit) and claim (a fresh job's claim,
	// which the driver copies) are scratch reused across passes.
	idle   []*job.Job
	ord    job.Order
	chosen []*job.Job
	claim  []int

	// hz is the quiet-tick state kept between horizons (horizon.go).
	hz horizonState
}

// New returns an SS or TSS scheduler for the given configuration. It
// panics on a suspension factor below 1.
func New(cfg Config) *Sched {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Sched{cfg: cfg}
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

// OnCompletion implements sched.Scheduler. The finished job's owner
// record goes at the next horizon; under single-pass TSS its slowdown
// moves its category's limit, so the records of that category are
// re-valued there too.
func (s *Sched) OnCompletion(j *job.Job) {
	s.hz.left = append(s.hz.left, j.ProcSet[0])
	if a, ok := s.cfg.Limits.(*AdaptiveLimits); ok {
		c := j.EstimateCategory()
		a.Observe(c, j.BoundedSlowdown())
		s.hz.cats |= 1 << c.Index()
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
// naturally re-serves the most-hurt jobs first. The kept state drops at
// once the reentry needs of the images lost with p and every record of
// a displaced job: the pass below may restart one, which rewrites its
// set in place.
func (s *Sched) OnFailure(p int, requeued []*job.Job) {
	s.hz.dropLost(p)
	for _, j := range requeued {
		s.hz.forget(j, s.env.Cluster)
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
// preemption, and logs each start for the next horizon; a resumed job
// loses its reentry need at once. A job that migrates loses its records
// before it resumes, because the resume rewrites its set in place.
func (s *Sched) serveIdle() {
	for _, j := range s.idle {
		var started bool
		switch {
		case j.State != job.Suspended:
			started = s.env.StartFresh(j)
		case s.cfg.Migration:
			if j.Procs <= s.env.Cluster.FreeUnclaimed() {
				s.hz.forget(j, s.env.Cluster)
				started = s.env.ResumeAnywhere(j)
			}
		default:
			if started = s.env.Resume(j); started {
				s.hz.dropNeed(j)
			}
		}
		if started {
			s.hz.started = append(s.hz.started, j)
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
	claim := s.env.Cluster.ListFreeUnclaimed(j.Procs, s.claim[:0])
	for _, v := range victims {
		for _, p := range v.ProcSet {
			if len(claim) == j.Procs {
				break
			}
			claim = append(claim, p)
		}
	}
	s.claim = claim
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
	return trimLargestFirst(chosen, j.Procs, s.env.Cluster.FreeUnclaimed())
}

// trimLargestFirst is the last step of the fresh-idle-job branch of the
// paper's pseudocode (suspend_jobs_1). chosen are the running jobs that,
// taken in ascending suspension priority, cover a request of w
// processors together with the free ones. It returns the victims to
// suspend: chosen in descending width, largest first, only as many as
// needed. It reorders chosen and returns a prefix of it.
func trimLargestFirst(chosen []*job.Job, w, free int) []*job.Job {
	slices.SortFunc(chosen, func(a, b *job.Job) int {
		if c := cmp.Compare(b.Procs, a.Procs); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	n := 0
	for ; n < len(chosen) && free < w; n++ {
		free += chosen[n].Procs
	}
	return chosen[:n]
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
// kept state, with the claim as the driver keeps it.
func (s *Sched) commit(j *job.Job, victims []*job.Job, claim []int) {
	s.hz.committed(j, victims, s.env.PreemptAndStart(j, victims, claim))
}
