package sim

// eventHeap is a binary min-heap of events ordered by (Time, Kind, seq).
// It holds only the events a run creates (Completion through
// ProcRepair): arrivals stream from the engine's sorted job list and the
// tick is a clock field, so the heap stays as small as the set of
// in-flight events and can store them by value. Ordering by Kind at
// equal times makes completions visible to later kinds at the same
// instant; seq keeps the order deterministic. A hand-rolled heap (rather
// than container/heap) avoids the interface boxing on the hot path, and
// both sifts move a hole instead of swapping whole events.
type eventHeap struct {
	a []Event
}

func eventLess(x, y *Event) bool {
	if x.Time != y.Time {
		return x.Time < y.Time
	}
	if x.Kind != y.Kind {
		return x.Kind < y.Kind
	}
	return x.seq < y.seq
}

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) push(ev Event) {
	h.a = append(h.a, ev)
	a := h.a
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&ev, &a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = ev
}

// pop removes and returns the earliest event.
//
//lint:allocfree always, moves within the slice
func (h *eventHeap) pop() Event {
	a := h.a
	top := a[0]
	last := len(a) - 1
	x := a[last]
	a[last] = Event{} // drop the job pointer from the spare slot
	a = a[:last]
	h.a = a
	if last == 0 {
		return top
	}
	// Sift x down from the root's hole.
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && eventLess(&a[r], &a[c]) {
			c = r
		}
		if !eventLess(&a[c], &x) {
			break
		}
		a[i] = a[c]
		i = c
	}
	a[i] = x
	return top
}
