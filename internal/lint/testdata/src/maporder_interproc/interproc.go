// Package fixture exercises the interprocedural maporder rules: audit
// emits reached through helper calls, carrier helpers that return
// map-ordered slices, and the flow-graph sort detection that accepts a
// sort anywhere after the loop rather than only in the same block.
package fixture

import (
	"fmt"
	"io"
	"sort"
)

// AuditLog mirrors the simulator's audit log shape for the emit rule.
type AuditLog struct {
	entries []int
}

func (l *AuditLog) add(e int) { l.entries = append(l.entries, e) }

// emit records an audit entry: a one-hop auditor.
func emit(l *AuditLog, v int) { l.add(v) }

// emit2 audits two hops away from the log.
func emit2(l *AuditLog, v int) { emit(l, v) }

// BadIndirectAudit audits in iteration order through a helper; the call
// graph closure sees through the indirection.
func BadIndirectAudit(m map[int]int, l *AuditLog) {
	for _, v := range m { // want "the audit log via call to emit"
		emit(l, v)
	}
}

// BadTransitiveAudit audits through two levels of helpers.
func BadTransitiveAudit(m map[int]int, l *AuditLog) {
	for _, v := range m { // want "the audit log via call to emit2"
		emit2(l, v)
	}
}

// BadWrite writes output in iteration order — as order-sensitive as an
// audit emit.
func BadWrite(m map[int]int, w io.Writer) {
	for k, v := range m { // want "map iteration order leaks into a writer"
		fmt.Fprintf(w, "%d=%d\n", k, v)
	}
}

// keysOf deliberately returns map keys unsorted. Its own range is
// flagged (suppressed here with a justification), and the carrier rule
// polices every call site instead.
func keysOf(m map[int]int) []int {
	var ks []int
	//lint:ignore pjslint/maporder helper returns unsorted by contract; the carrier rule checks each caller
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// wrapKeys forwards a carrier's result: itself a carrier by summary.
func wrapKeys(m map[int]int) []int { return keysOf(m) }

// BadUnsortedReturn lets a carrier's result escape unsorted.
func BadUnsortedReturn(m map[int]int) []int {
	ks := keysOf(m) // want "keysOf returns a slice in map-iteration order"
	return ks
}

// BadWrapped leaks map order through the wrapper into an append.
func BadWrapped(m map[int]int, out []int) []int {
	ks := wrapKeys(m) // want "wrapKeys returns a slice in map-iteration order"
	out = append(out, ks...)
	return out
}

// GoodSortedUse sorts the carrier's result before it escapes.
func GoodSortedUse(m map[int]int) []int {
	ks := keysOf(m)
	sort.Ints(ks)
	return ks
}

// GoodLocalCount reduces the carrier's result without exposing order.
func GoodLocalCount(m map[int]int) int {
	ks := keysOf(m)
	return len(ks)
}

// GoodNestedSort accumulates inside a conditional and sorts after it:
// the block-local heuristic of maporder v1 flagged this shape, the
// flow-graph walk accepts it.
func GoodNestedSort(m map[int]int, keep bool) []int {
	var ks []int
	if keep {
		for k := range m {
			ks = append(ks, k)
		}
	}
	sort.Ints(ks)
	return ks
}
