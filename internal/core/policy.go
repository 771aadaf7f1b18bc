// Package core implements the paper's primary contribution: the
// Selective Suspension (SS) preemption policy and its Tunable (TSS)
// variant, as pure decision logic (Section IV). An idle job may preempt
// running jobs whose suspension priority — the expansion factor of
// Eq. 2 — is lower than its own by at least the suspension factor SF.
//
// The policy functions here are independent of the event loop; package
// sched/ss wires them into the simulator. Keeping them pure makes the
// preemption rules directly testable against the paper's claims (e.g.
// the s = (n+2)/(n+1) suspension-count boundary of Section IV-A, see
// package theory).
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pjs/internal/job"
)

// LimitSource supplies the TSS per-category preemption-disable limits
// (Section IV-E): preemption of a running job is disabled once its
// xfactor exceeds the limit of its category, which bounds the worst-case
// slowdown. A nil LimitSource disables the mechanism (plain SS).
type LimitSource interface {
	// Limit returns the xfactor ceiling for category c; returns
	// ok=false when no limit is known (e.g. during adaptive warm-up).
	Limit(c job.Category) (limit float64, ok bool)
}

// Policy holds the tunables of the SS/TSS preemption rule. The victim
// selectors reuse scratch held in the value, so one Policy must not be
// used from several goroutines at once.
type Policy struct {
	// SF is the suspension factor: the minimum ratio of the idle job's
	// priority to the running job's priority for preemption (the paper
	// evaluates 1.5, 2 and 5; values below 2 allow repeated swapping
	// of equal jobs, Section IV-A).
	SF float64
	// DisableHalfWidthRule turns off the Section IV-B fairness rule
	// that a fresh idle job may only suspend running jobs at most
	// twice its own width (the rule protects wide jobs from being
	// suspended by narrow ones). The rule never applies to reentry.
	DisableHalfWidthRule bool
	// Limits is the TSS limit table; nil means plain SS.
	Limits LimitSource
	// MaxVictimSuspensions caps how many times a job may be suspended
	// over its lifetime (0 = unlimited). The paper contrasts its
	// suspension-factor control against exactly this mechanism: Chiang
	// et al.'s run-to-completion policy "allows a job to be suspended
	// at most once" (MaxVictimSuspensions = 1), whereas SS controls the
	// *rate* of suspensions without limiting their number.
	MaxVictimSuspensions int

	// Scratch reused across calls so that victim selection allocates
	// only for the victims it returns.
	order job.Order
	cands []*job.Job
	seen  []*job.Job
}

// Validate reports whether the policy parameters are usable.
func (p *Policy) Validate() error {
	if p.SF < 1 {
		return fmt.Errorf("core: suspension factor %v < 1 would let lower-priority jobs preempt", p.SF)
	}
	return nil
}

// CanPreempt reports whether idle may suspend the running victim at time
// now. reentry marks a previously suspended idle job trying to reacquire
// its exact processor set; the half-width rule is waived there
// (Section IV-C: "Here we remove the restriction…"), because a wide
// reentering job might otherwise wait for the full completion of a
// narrow job sitting on one of its processors.
func (p *Policy) CanPreempt(now int64, idle, victim *job.Job, reentry bool) bool {
	vx := victim.XFactor(now)
	if !p.Suspendable(victim, vx) {
		return false
	}
	if !reentry && !p.DisableHalfWidthRule && victim.Procs > 2*idle.Procs {
		return false
	}
	return idle.XFactor(now) >= p.SF*vx
}

// Suspendable reports whether the running victim, whose xfactor is xf,
// may be suspended by any idle job: it is under MaxVictimSuspensions
// and, under TSS, within its category's limit.
func (p *Policy) Suspendable(victim *job.Job, xf float64) bool {
	if p.MaxVictimSuspensions > 0 && victim.Suspensions >= p.MaxVictimSuspensions {
		return false
	}
	if p.Limits != nil {
		// TSS: preemption of a job is disabled when its priority
		// exceeds 1.5× the average slowdown of its category. The
		// scheduler has no oracle for the true run time, so the
		// category is the one implied by the user estimate.
		if lim, ok := p.Limits.Limit(victim.EstimateCategory()); ok && xf > lim {
			return false
		}
	}
	return true
}

// Crossing returns how many seconds after now the xfactor of idle — a
// Queued or Suspended job, whose wait grows one second per second —
// reaches SF·need, the point from which the SF condition of CanPreempt
// can hold against a victim whose xfactor is need:
//
//	d = ceil(SF·need·est) − Wait(now) − est
//
// with est the estimate clamped to at least one second, as in XFactor.
// d ≤ 0 means idle is already there; an infinite need gives
// math.MaxInt64. SF·need·est is rounded in floating point, which can
// make d a second late, so a caller that skips work before the crossing
// keeps a margin. The ceiling is clamped to 2^52 s, where a float stops
// resolving single seconds; the clamp only makes d earlier.
func (p *Policy) Crossing(now int64, idle *job.Job, need float64) int64 {
	est := idle.Estimate
	if est < 1 {
		est = 1
	}
	f := math.Ceil(p.SF * need * float64(est))
	if math.IsInf(f, 1) {
		return math.MaxInt64
	}
	f = min(f, 1<<52)
	return int64(f) - idle.Wait(now) - est
}

// SelectVictims implements the fresh-idle-job branch of the paper's
// pseudocode (suspend_jobs_1): scan running jobs in ascending priority
// collecting preemptible candidates until, together with the free
// processors, they cover the idle job's request; then suspend candidates
// in descending width, largest first, only as many as needed. It returns
// the victims to suspend and ok=false when the request cannot be covered.
//
// running may be in any order and may contain non-Running jobs; both are
// handled here so callers can pass their bookkeeping lists directly.
func (p *Policy) SelectVictims(now int64, idle *job.Job, running []*job.Job, freeProcs int) (victims []*job.Job, ok bool) {
	if freeProcs >= idle.Procs {
		return nil, true // nothing to suspend
	}
	// Ascending suspension priority, deterministic ties.
	cands := p.cands[:0]
	for _, r := range running {
		if r.State == job.Running {
			cands = append(cands, r)
		}
	}
	p.cands = cands
	p.order.Sort(cands, func(j *job.Job) (float64, int64) { return j.XFactor(now), 0 })
	avail := freeProcs
	chosen := cands[:0]
	for _, v := range cands {
		if avail >= idle.Procs {
			break
		}
		if !p.CanPreempt(now, idle, v, false) {
			continue
		}
		chosen = append(chosen, v)
		avail += v.Procs
	}
	if avail < idle.Procs {
		return nil, false
	}
	// Largest width first; suspend only until the request is covered.
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

// ReentryBlocked classifies one processor of a reentering job's
// remembered set.
type ReentryBlocked int

const (
	// ReentryFree: the processor is available to the reentering job.
	ReentryFree ReentryBlocked = iota
	// ReentryPreemptible: the processor is held by a running job the
	// policy allows suspending.
	ReentryPreemptible
	// ReentryHard: the processor is held by a job that cannot be
	// preempted (policy refusal, or a non-running holder).
	ReentryHard
)

// SelectReentryVictims implements the already_suspended branch
// (suspend_jobs_2): the idle job needs exactly its remembered processor
// set back, so every processor must be either free or held by a running
// job that the SF condition (without the half-width rule) allows
// suspending. classify reports each processor's status and, for
// preemptible ones, its holder. It returns the distinct victims in order
// of first appearance and ok=false if any processor is hard-blocked.
//
// A holder spanning several processors is judged once: CanPreempt is a
// pure function of (now, idle, holder), so its first answer stands.
func (p *Policy) SelectReentryVictims(now int64, idle *job.Job, classify func(proc int) (ReentryBlocked, *job.Job)) (victims []*job.Job, ok bool) {
	p.seen = p.seen[:0]
	for _, proc := range idle.ProcSet {
		status, holder := classify(proc)
		switch status {
		case ReentryFree:
			continue
		case ReentryHard:
			return nil, false
		case ReentryPreemptible:
			if slices.Contains(p.seen, holder) {
				continue
			}
			if holder == nil || holder.State != job.Running {
				return nil, false
			}
			if !p.CanPreempt(now, idle, holder, true) {
				return nil, false
			}
			p.seen = append(p.seen, holder)
		}
	}
	if len(p.seen) == 0 {
		return nil, true
	}
	return slices.Clone(p.seen), true
}
