// Package fixture exercises the stablesort check: sort.Slice and
// slices.SortFunc in scheduler scope are flagged unless their comparator
// ends with a job-ID tie-break, slices.Sort unless its elements are
// integers or strings; the stable sorts are always accepted.
package fixture

import "sort"

type rel struct {
	end int64
	ID  int
}

// Bad is the exact shape of the pre-fix easy/speculative shadow
// computation: an unstable sort keyed only on the release time.
func Bad(rels []rel) {
	sort.Slice(rels, func(i, k int) bool { return rels[i].end < rels[k].end }) // want "sort.Slice is unstable"
}

// BadInts shows that plain value sorts are flagged too.
func BadInts(xs []int) {
	sort.Slice(xs, func(i, k int) bool { return xs[i] < xs[k] }) // want "sort.Slice is unstable"
}

// GoodTieBreak keeps sort.Slice but makes the order total: the final
// clause compares job IDs, so equal keys cannot tie.
func GoodTieBreak(rels []rel) {
	sort.Slice(rels, func(i, k int) bool {
		if rels[i].end != rels[k].end {
			return rels[i].end < rels[k].end
		}
		return rels[i].ID < rels[k].ID
	})
}

// GoodStable uses the stable sort; insertion order breaks ties
// deterministically.
func GoodStable(rels []rel) {
	sort.SliceStable(rels, func(i, k int) bool { return rels[i].end < rels[k].end })
}

// Suppressed demonstrates the directive.
func Suppressed(xs []int) {
	//lint:ignore pjslint/stablesort fixture demonstrates a justified suppression
	sort.Slice(xs, func(i, k int) bool { return xs[i] < xs[k] })
}
