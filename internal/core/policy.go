// Package core holds the rules of the paper's primary contribution, the
// Selective Suspension (SS) preemption policy and its Tunable (TSS)
// variant (Section IV), as pure decision logic. An idle job may preempt
// running jobs whose suspension priority — the expansion factor of
// Eq. 2 — is lower than its own by at least the suspension factor SF.
//
// Policy carries the rule's tunables; Suspendable says which running
// jobs any idle job may suspend at all (TSS limits, the suspension
// cap), Crossing when an idle job's xfactor reaches SF times the
// xfactor it needs, and SelectVictims is the largest-first trim of the
// fresh-job branch. Package sched/ss applies them to the state its
// quiet-tick horizon keeps — who holds which processor, and the
// suspendable jobs in ascending xfactor — and commits each preemption
// from that state. Keeping the rules pure makes them directly testable
// against the paper's claims (e.g. the s = (n+2)/(n+1) suspension-count
// boundary of Section IV-A, see package theory).
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

// Policy holds the tunables of the SS/TSS preemption rule.
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
}

// Validate reports whether the policy parameters are usable.
func (p *Policy) Validate() error {
	if p.SF < 1 {
		return fmt.Errorf("core: suspension factor %v < 1 would let lower-priority jobs preempt", p.SF)
	}
	return nil
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

// SelectVictims is the last step of the fresh-idle-job branch of the
// paper's pseudocode (suspend_jobs_1). chosen are the running jobs that,
// taken in ascending suspension priority, cover a request of w
// processors together with the free ones. It returns the victims to
// suspend: chosen in descending width, largest first, only as many as
// needed. It reorders chosen and returns a prefix of it.
func SelectVictims(chosen []*job.Job, w, free int) []*job.Job {
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
