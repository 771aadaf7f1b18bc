package ss

import (
	"pjs/internal/job"
	"pjs/internal/stats"
)

// LimitSource supplies the TSS per-category preemption-disable limits
// (Section IV-E): preemption of a running job is disabled once its
// xfactor exceeds the limit of its category, which bounds the worst-case
// slowdown. A nil LimitSource disables the mechanism (plain SS). SS
// keeps which running jobs are suspendable from one tick to the next,
// so a source's limits must not change during a run, except those of an
// *AdaptiveLimits through the Observe calls SS makes itself.
type LimitSource interface {
	// Limit returns the xfactor ceiling for category c; returns
	// ok=false when no limit is known (e.g. during adaptive warm-up).
	Limit(c job.Category) (limit float64, ok bool)
}

// TSSLimitFactor is the paper's multiplier: a job's preemption-disable
// limit is 1.5 times the average slowdown of its category (Section IV-E).
const TSSLimitFactor = 1.5

// StaticLimits is a fixed per-category xfactor-limit table, normally
// derived from a non-preemptive baseline run of the same trace via
// LimitsFromSlowdowns. A zero entry means "no limit for this category".
type StaticLimits [16]float64

// Limit implements LimitSource.
func (s *StaticLimits) Limit(c job.Category) (float64, bool) {
	v := s[c.Index()]
	return v, v > 0
}

// LimitsFromSlowdowns builds the TSS table from per-category average
// slowdowns (e.g. measured under the NS baseline): limit = 1.5 × avg.
// Categories without data (avg ≤ 0) get no limit. Because a limit below
// 1 would disable preemption of every job in the category from the
// start, limits are floored at TSSLimitFactor (average slowdown is ≥ 1
// by definition, so this only guards degenerate inputs).
func LimitsFromSlowdowns(avg [16]float64) *StaticLimits {
	var s StaticLimits
	for i, a := range avg {
		if a <= 0 {
			continue
		}
		l := TSSLimitFactor * a
		if l < TSSLimitFactor {
			l = TSSLimitFactor
		}
		s[i] = l
	}
	return &s
}

// AdaptiveLimits learns the per-category average slowdown online from
// jobs completed so far in the same run — the single-pass alternative to
// the two-pass StaticLimits, ablated in the benchmarks. A scheduler
// whose Config.Limits is an *AdaptiveLimits feeds it every completed
// job. A category yields no limit until AdaptiveMinSamples of its jobs
// have completed.
type AdaptiveLimits struct {
	accs [16]stats.Acc
}

// AdaptiveMinSamples is the warm-up of AdaptiveLimits: how many of a
// category's jobs must complete before it has a limit.
const AdaptiveMinSamples = 10

// Observe folds the bounded slowdown of a completed job into the table.
// The category is the scheduler-visible one (estimate-based), matching
// the lookup in Config.suspendable.
func (a *AdaptiveLimits) Observe(c job.Category, slowdown float64) {
	a.accs[c.Index()].Add(slowdown)
}

// Limit implements LimitSource.
func (a *AdaptiveLimits) Limit(c job.Category) (float64, bool) {
	acc := &a.accs[c.Index()]
	if acc.N() < AdaptiveMinSamples {
		return 0, false
	}
	return TSSLimitFactor * acc.Mean(), true
}
