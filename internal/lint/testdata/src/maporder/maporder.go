// Package fixture exercises the maporder check: every range over a
// map-typed operand and every maps.Keys/Values/All call is a finding,
// whatever the loop does with the order and whether a sort follows.
package fixture

import (
	"maps"
	"slices"
	"sort"
)

// AuditLog mirrors the simulator's audit log shape.
type AuditLog struct {
	entries []int
}

func (l *AuditLog) add(e int) { l.entries = append(l.entries, e) }

// BadAccumulate appends map keys in iteration order and returns them
// unsorted: two runs observe different orders.
func BadAccumulate(m map[int]string) []int {
	var out []int
	for k := range m { // want "range over a map visits keys in random order"
		out = append(out, k)
	}
	return out
}

// BadAudit emits audit entries in iteration order.
func BadAudit(m map[int]int, log *AuditLog) {
	for _, v := range m { // want "range over a map visits keys in random order"
		log.add(v)
	}
}

// victim is a job a preemption may suspend.
type victim struct {
	ID, Procs int
}

// BadStableSortAfter collects victims in map order and stable-sorts
// them by width alone: among equal widths the map's order survives the
// sort, so a sort after the loop is no excuse.
func BadStableSortAfter(held map[int]victim) []victim {
	var out []victim
	for _, v := range held { // want "range over a map visits keys in random order"
		out = append(out, v)
	}
	sort.SliceStable(out, func(i, k int) bool { return out[i].Procs > out[k].Procs })
	return out
}

// BadReduction ranges for a sum. The order cannot matter here, but the
// rule does not try to tell; such a loop states why in a lint:ignore.
func BadReduction(m map[int]int) int {
	sum := 0
	for _, v := range m { // want "range over a map visits keys in random order"
		sum += v
	}
	return sum
}

// byID is a named map type: its underlying type is what counts.
type byID map[int]victim

// BadNamedMap ranges over a named map type inside a closure.
func BadNamedMap(m byID) func() int {
	return func() int {
		n := 0
		for id := range m { // want "range over a map visits keys in random order"
			n = id
		}
		return n
	}
}

// BadGeneric ranges over a type parameter whose constraint is a map.
func BadGeneric[M ~map[int]int](m M) int {
	last := 0
	for k := range m { // want "range over a map visits keys in random order"
		last = k
	}
	return last
}

// BadCollect leaks map order without any range statement.
func BadCollect(m map[int]int) []int {
	return slices.Collect(maps.Keys(m)) // want "maps.Keys yields in random map order"
}

// BadValues ranges over the iterator of map values.
func BadValues(m map[int]int) int {
	n := 0
	for v := range maps.Values(m) { // want "maps.Values yields in random map order"
		n += v
	}
	return n
}

// BadAll ranges over the iterator of map entries.
func BadAll(m map[int]int) int {
	n := 0
	for k, v := range maps.All(m) { // want "maps.All yields in random map order"
		n += k * v
	}
	return n
}

// GoodSlice ranges over a slice and reads the map by key: both are
// deterministic.
func GoodSlice(ids []int, m map[int]int) int {
	n := 0
	for _, id := range ids {
		n += m[id]
	}
	return n + len(m)
}

// GoodSortedKeys reads the map through a key list kept next to it.
func GoodSortedKeys(keys []int, m map[int]int) []int {
	out := slices.Clone(keys)
	slices.Sort(out)
	for i, k := range out {
		out[i] = m[k]
	}
	return out
}

// Suppressed demonstrates the directive.
func Suppressed(m map[int]int) []int {
	var out []int
	//lint:ignore pjslint/maporder fixture demonstrates a justified suppression
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
