package fixture

import (
	"cmp"
	"slices"
	"sort"
)

// viaLocal forwards keysOf's result through a local, unsorted by
// contract like keysOf itself: the value flow still makes it a carrier.
func viaLocal(m map[int]int) []int {
	//lint:ignore pjslint/maporder forwards unsorted by contract; the carrier rule checks each caller
	ks := keysOf(m)
	return ks
}

// BadViaLocal appends a carrier's result that reached it through a
// local in the helper.
func BadViaLocal(m map[int]int, out []int) []int {
	ks := viaLocal(m) // want "viaLocal returns a slice in map-iteration order"
	out = append(out, ks...)
	return out
}

// byVal orders ints through sort.Interface.
type byVal []int

func (b byVal) Len() int           { return len(b) }
func (b byVal) Less(i, k int) bool { return b[i] < b[k] }
func (b byVal) Swap(i, k int)      { b[i], b[k] = b[k], b[i] }

// sortedKeys sorts through a conversion: sorting byVal(ks) sorts ks,
// so the helper is no carrier.
func sortedKeys(m map[int]int) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	sort.Sort(byVal(ks))
	return ks
}

// GoodConverted lets a sorted helper result escape as it is.
func GoodConverted(m map[int]int) []int {
	ks := sortedKeys(m)
	return ks
}

// entry is a map value that carries its own key.
type entry struct {
	ID int
}

// entriesByID sorts with slices.SortFunc before it returns, so it is no
// carrier either.
func entriesByID(m map[int]entry) []entry {
	var es []entry
	for _, e := range m {
		es = append(es, e)
	}
	slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.ID, b.ID) })
	return es
}

// GoodSortFunc appends a helper result that slices.SortFunc sorted.
func GoodSortFunc(m map[int]entry, out []entry) []entry {
	es := entriesByID(m)
	out = append(out, es...)
	return out
}

// jobsOf appends map-ordered lookups, not the keys themselves: the
// slice's order is the map's whatever its elements are.
func jobsOf(held map[int]bool, jobs []int) []int {
	var out []int
	//lint:ignore pjslint/maporder helper returns unsorted by contract; the carrier rule checks each caller
	for id := range held {
		out = append(out, jobs[id])
	}
	return out
}

// BadIndexed appends a helper result built from indexed lookups.
func BadIndexed(held map[int]bool, jobs, out []int) []int {
	js := jobsOf(held, jobs) // want "jobsOf returns a slice in map-iteration order"
	out = append(out, js...)
	return out
}

// registry looks jobs up by ID.
type registry struct {
	jobs []int
}

func (r *registry) lookup(id int) int { return r.jobs[id] }

// heldJobs appends the results of an in-package lookup method, in map
// order.
func (r *registry) heldJobs(held map[int]bool) []int {
	var out []int
	//lint:ignore pjslint/maporder helper returns unsorted by contract; the carrier rule checks each caller
	for id := range held {
		out = append(out, r.lookup(id))
	}
	return out
}

// BadLookup appends a helper result built through a lookup method.
func BadLookup(r *registry, held map[int]bool, out []int) []int {
	js := r.heldJobs(held) // want "heldJobs returns a slice in map-iteration order"
	out = append(out, js...)
	return out
}

// scatter places every value at its key: the result's order is the
// keys', not the map's, so it is no carrier.
func scatter(m map[int]int, n int) []int {
	out := make([]int, n)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// sumOf reduces the map to one total, the same in any order.
func sumOf(m map[int]int) []int {
	total := 0
	for _, v := range m {
		total += v
	}
	return []int{total}
}

// GoodScatterReduce appends the results of a scatter by key and of a
// reduction: neither carries map order.
func GoodScatterReduce(m map[int]int, out []int) []int {
	vs := scatter(m, len(m))
	out = append(out, vs...)
	ts := sumOf(m)
	out = append(out, ts...)
	return out
}
