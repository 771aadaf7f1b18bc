// Package stats provides the small set of descriptive statistics the
// experiment harness needs: a streaming mean/max accumulator and
// percentiles. Everything is deterministic and allocation-light so it
// can run inside benchmarks.
package stats

import (
	"math"
	"math/bits"
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
	lo, hi, frac := ranks(len(xs), p)
	if lo == hi {
		return xs[lo]
	}
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// SelectPercentile returns what Percentile returns for xs, bit for bit,
// without sorting: it selects the one or two order statistics the
// percentile interpolates, in expected linear time. It reorders xs, in
// place (see Select), and allocates nothing. xs must not hold NaNs.
func SelectPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi, frac := ranks(len(xs), p)
	x := Select(xs, lo)
	if lo == hi {
		return x
	}
	// Select left no sample after lo below xs[lo]: the next order
	// statistic is the least of them.
	y := xs[hi]
	for _, v := range xs[hi+1:] {
		y = min(y, v)
	}
	return x*(1-frac) + y*frac
}

// ranks returns the closest ranks around the p-th percentile of n
// sorted samples and the interpolation weight of the upper one.
func ranks(n int, p float64) (lo, hi int, frac float64) {
	p = min(max(p, 0), 100)
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	hi = int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// Select reorders xs so that xs[k] holds the value an ascending sort
// would put there, no element before it is greater and none after it is
// less, and returns xs[k]. It is a three-way quickselect on a
// median-of-three pivot, so runs of equal values cost one pass; should
// the partitions keep coming out lopsided it sorts what is left, which
// bounds it by a sort. xs must not hold NaNs.
func Select(xs []float64, k int) float64 {
	return selectBudget(xs, k, 2*bits.Len(uint(len(xs))))
}

// selectBudget is Select with at most budget partitions before the sort.
func selectBudget(xs []float64, k, budget int) float64 {
	lo, hi := 0, len(xs) // xs[k] belongs in xs[lo:hi]
	for ; hi-lo > 12; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo:hi])
			return xs[k]
		}
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		pivot := max(min(a, b), min(max(a, b), c))
		// Dijkstra's partition: xs[lo:lt] < pivot, xs[lt:i] == pivot,
		// xs[gt:hi] > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case x < pivot:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > pivot:
				gt--
				xs[gt], xs[i] = x, xs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return pivot
		}
	}
	for i := lo + 1; i < hi; i++ { // insertion sort of the last few
		for j := i; j > lo && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs[k]
}
