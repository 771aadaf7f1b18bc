// Package stats provides the small set of descriptive statistics the
// experiment harness needs: a streaming mean/max accumulator and
// percentiles. Everything is deterministic and allocation-light so it
// can run inside benchmarks.
package stats

import (
	"math"
	"sort"
)

// Acc is a streaming accumulator for the mean and maximum. The zero
// value is ready to use.
type Acc struct {
	n    int
	mean float64
	max  float64
}

// Add folds x into the accumulator.
func (a *Acc) Add(x float64) {
	a.n++
	if a.n == 1 || x > a.max {
		a.max = x
	}
	a.mean += (x - a.mean) / float64(a.n)
}

// N returns the number of samples.
func (a *Acc) N() int { return a.n }

// Mean returns the sample mean, or 0 with no samples.
func (a *Acc) Mean() float64 { return a.mean }

// Max returns the largest sample, or 0 with no samples.
func (a *Acc) Max() float64 { return a.max }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using
// linear interpolation between closest ranks. It copies xs, leaving the
// input unmodified, and returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return SortedPercentile(s, p)
}

// SortedPercentile is Percentile for xs already in ascending order: it
// neither copies nor sorts, so a caller that needs several percentiles
// of one sample sorts it once.
func SortedPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}
