package fixture

import (
	"cmp"
	"slices"
)

type keyed struct {
	key float64
	j   *rel
}

// BadSortFunc is the decorated sort with its ID clause dropped: two jobs
// with equal keys land in pivot order.
func BadSortFunc(ks []keyed) {
	slices.SortFunc(ks, func(a, b keyed) int { return cmp.Compare(a.key, b.key) }) // want "slices.SortFunc is unstable"
}

// BadChainWithoutID ends its if/return chain on the key, not the ID.
func BadChainWithoutID(rels []rel) {
	slices.SortFunc(rels, func(a, b rel) int { // want "slices.SortFunc is unstable"
		if a.end < b.end {
			return -1
		}
		return 1
	})
}

// BadNamedComparator names an in-package comparator with no ID clause.
func BadNamedComparator(rels []rel) {
	slices.SortFunc(rels, byEnd) // want "slices.SortFunc is unstable"
}

func byEnd(a, b rel) int { return cmp.Compare(a.end, b.end) }

// BadForeignComparator names a comparator of another package, which
// cannot be inspected, so it is reported.
func BadForeignComparator(xs []float64) {
	slices.SortFunc(xs, cmp.Compare[float64]) // want "slices.SortFunc is unstable"
}

// BadFloats: -0 and +0 compare equal but differ.
func BadFloats(xs []float64) {
	slices.Sort(xs) // want "slices.Sort is unstable"
}

// GoodCompareID ends in cmp.Compare over the (nested) job ID.
func GoodCompareID(ks []keyed) {
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.j.ID, b.j.ID)
	})
}

// GoodDifference ends in the ID difference.
func GoodDifference(rels []rel) {
	slices.SortFunc(rels, func(a, b rel) int {
		if a.end != b.end {
			return cmp.Compare(a.end, b.end)
		}
		return a.ID - b.ID
	})
}

// GoodChain ends in an if/return chain whose last condition compares IDs.
func GoodChain(rels []rel) {
	slices.SortFunc(rels, func(a, b rel) int {
		if a.end != b.end {
			return cmp.Compare(a.end, b.end)
		}
		if a.ID < b.ID {
			return -1
		}
		return 1
	})
}

// GoodNamedComparator names an in-package comparator that ends in the
// job-ID clause.
func GoodNamedComparator(rels []rel) {
	slices.SortFunc(rels, byEndThenID)
}

func byEndThenID(a, b rel) int {
	if c := cmp.Compare(a.end, b.end); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// GoodStableFunc is stable; ties keep insertion order.
func GoodStableFunc(rels []rel) {
	slices.SortStableFunc(rels, func(a, b rel) int { return cmp.Compare(a.end, b.end) })
}

// GoodInts: equal integers are indistinguishable.
func GoodInts(ids []int) {
	slices.Sort(ids)
}
