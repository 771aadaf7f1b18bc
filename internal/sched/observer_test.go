package sched

import (
	"testing"

	"pjs/internal/job"
	"pjs/internal/sim"
)

// TestNilObserverEmitZeroAllocs pins the cost of running uninstrumented:
// with no observer and no audit log, the record funnel — tally, hash
// guard, and the skipped census and observer call — must not allocate,
// for job actions and processor-level actions alike.
// BenchmarkRunObserverNil (package sched_test) pins the end-to-end
// throughput claim.
func TestNilObserverEmitZeroAllocs(t *testing.T) {
	e := &Env{}
	e.engine = sim.New(e, 0)
	j := job.New(1, 0, 100, 100, 2)
	j.ProcSet = []int{0, 1}
	if n := testing.AllocsPerRun(1000, func() {
		e.record(jobEvent(ActStart, j, j.ProcSet))
		e.record(e.procEvent(ActProcFail, 1))
	}); n != 0 {
		t.Fatalf("record with nil observer allocated %v times per event, want 0", n)
	}
}

// countingObserver is the cheapest possible sink: a bare counter.
type countingObserver struct{ n int }

func (c *countingObserver) Observe(ev Event) { c.n += ev.Busy }

// TestObserverEventZeroAllocs proves the Event handoff itself is
// allocation-free: the Event is a value passed to an interface method,
// so no per-event boxing or heap escape happens even with an observer
// attached. (Sinks may of course allocate for their own state; the
// contract is that the engine side adds nothing.)
func TestObserverEventZeroAllocs(t *testing.T) {
	c := &countingObserver{}
	var obs Observer = c
	ev := Event{Entry: Entry{Time: 42, Action: ActStart}, Busy: 3}
	if n := testing.AllocsPerRun(1000, func() {
		obs.Observe(ev)
	}); n != 0 {
		t.Fatalf("Observe handoff allocated %v times per event, want 0", n)
	}
	if c.n == 0 {
		t.Fatal("observer was never invoked")
	}
}
