package perf

import (
	"strings"
	"testing"
)

// TestNilProbeZeroAllocs pins the disabled-probe fast path: with no
// probe attached (the default for every simulation), the span calls
// instrumentation sites make must not allocate — the analogue of
// TestNilObserverEmitZeroAllocs for the observer hook.
func TestNilProbeZeroAllocs(t *testing.T) {
	var p *Probe
	if n := testing.AllocsPerRun(1000, func() {
		start := p.Begin()
		p.End(PhaseQueueScan, start)
	}); n != 0 {
		t.Fatalf("nil probe Begin/End allocated %v times per span, want 0", n)
	}
	if p.Enabled() {
		t.Fatal("nil probe reports Enabled")
	}
	if s := p.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil probe snapshot = %+v, want zero", s)
	}
}

// TestEnabledProbeZeroAllocs pins the recording path too: spans index a
// fixed-size array, so even an attached probe adds no per-span garbage.
func TestEnabledProbeZeroAllocs(t *testing.T) {
	var c ManualClock
	p := NewProbe(c.Clock())
	if n := testing.AllocsPerRun(1000, func() {
		start := p.Begin()
		c.Advance(5)
		p.End(PhaseVictimSelect, start)
	}); n != 0 {
		t.Fatalf("enabled probe Begin/End allocated %v times per span, want 0", n)
	}
}

// TestProbeAccumulates drives spans on a manual clock and checks the
// per-phase arithmetic exactly.
func TestProbeAccumulates(t *testing.T) {
	var c ManualClock
	p := NewProbe(c.Clock())
	for i := 0; i < 3; i++ {
		start := p.Begin()
		c.Advance(100)
		p.End(PhaseQueueScan, start)
	}
	start := p.Begin()
	c.Advance(40)
	p.End(PhaseVictimSelect, start)

	s := p.Snapshot()
	if got := s[PhaseQueueScan]; got.Calls != 3 || got.Nanos != 300 {
		t.Errorf("queue-scan stat = %+v, want {Calls:3 Nanos:300}", got)
	}
	if got := s[PhaseVictimSelect]; got.Calls != 1 || got.Nanos != 40 {
		t.Errorf("victim-select stat = %+v, want {Calls:1 Nanos:40}", got)
	}
	if got := s[PhaseBackfillWindow]; got != (PhaseStat{}) {
		t.Errorf("untouched phase has stat %+v", got)
	}
}

// TestMonotonicClockNeverRegresses samples the real clock and demands
// non-decreasing readings — the property the probes subtract on.
func TestMonotonicClockNeverRegresses(t *testing.T) {
	c := Monotonic()
	prev := c()
	for i := 0; i < 1000; i++ {
		now := c()
		if now < prev {
			t.Fatalf("monotonic clock went backwards: %d after %d", now, prev)
		}
		prev = now
	}
}

// TestPhaseStrings pins the phase names the psim -perf summary prints.
func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{
		PhaseQueueScan:      "queue-scan",
		PhaseBackfillWindow: "backfill-window",
		PhaseVictimSelect:   "victim-select",
	}
	for ph, name := range want {
		if got := ph.String(); got != name {
			t.Errorf("Phase(%d).String() = %q, want %q", ph, got, name)
		}
	}
}

// TestWriteSummary checks the rendered shape: throughput line plus one
// line per active phase, silent on idle phases.
func TestWriteSummary(t *testing.T) {
	var c ManualClock
	p := NewProbe(c.Clock())
	start := p.Begin()
	c.Advance(2_000_000)
	p.End(PhaseQueueScan, start)

	var b strings.Builder
	if err := p.Snapshot().WriteSummary(&b, 10_000_000, 500); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"events=500", "events/sec=50000", "queue-scan", "calls=1", "20.0% of run"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "victim-select") {
		t.Errorf("summary mentions idle phase:\n%s", out)
	}
}
