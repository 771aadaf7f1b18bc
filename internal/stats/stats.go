// Package stats provides the small set of descriptive statistics the
// experiment harness needs: streaming mean/max accumulators, percentiles
// and simple histograms. Everything is deterministic and allocation-light
// so it can run inside benchmarks.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Acc is a streaming accumulator for mean, min, max and variance
// (Welford's algorithm). The zero value is ready to use.
type Acc struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (a *Acc) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of samples.
func (a *Acc) N() int { return a.n }

// Mean returns the sample mean, or 0 with no samples.
func (a *Acc) Mean() float64 { return a.mean }

// Min returns the smallest sample, or 0 with no samples.
func (a *Acc) Min() float64 { return a.min }

// Max returns the largest sample, or 0 with no samples.
func (a *Acc) Max() float64 { return a.max }

// Var returns the unbiased sample variance, or 0 with fewer than two
// samples.
func (a *Acc) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Acc) Std() float64 { return math.Sqrt(a.Var()) }

// Merge folds accumulator b into a (parallel Welford merge).
func (a *Acc) Merge(b *Acc) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	n := a.n + b.n
	d := b.mean - a.mean
	a.m2 += b.m2 + d*d*float64(a.n)*float64(b.n)/float64(n)
	a.mean += d * float64(b.n) / float64(n)
	a.n = n
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

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

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Histogram counts samples into bins of equal width covering [lo, hi).
// Samples outside the range are clamped into the first/last bin.
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram creates a histogram with n equal bins over [lo, hi).
// It panics if n < 1 or hi ≤ lo.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram range [%v,%v)", lo, hi))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
}

// Add counts one sample.
func (h *Histogram) Add(x float64) {
	n := len(h.Counts)
	i := int(float64(n) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	h.Counts[i]++
}

// Total returns the number of samples counted.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Bin returns the [lo, hi) bounds of bin i.
func (h *Histogram) Bin(i int) (lo, hi float64) {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + float64(i)*w, h.Lo + float64(i+1)*w
}
