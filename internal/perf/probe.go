package perf

import (
	"fmt"
	"io"
)

// Phase names one instrumented region of a policy's hot path. The
// phases are inclusive: QueueScan covers a policy's pass over its idle
// queue, and BackfillWindow / VictimSelect time the expensive inner
// decisions a scan may make (a backfill window opens inside a queue
// scan). Their durations can therefore overlap, and their shares of a
// run's wall time need not add up to 100%.
type Phase uint8

const (
	// PhaseQueueScan is a policy's pass over its idle queue: the
	// descending-xfactor scan of SS, EASY's head-start-then-backfill
	// loop, depth-BF's reservation-and-backfill loop.
	PhaseQueueScan Phase = iota
	// PhaseBackfillWindow is the backfill-window computation: EASY's
	// shadow time and extra nodes, the profile anchoring of
	// conservative and depth-BF.
	PhaseBackfillWindow
	// PhaseVictimSelect is the preemption-victim selection of a
	// preemptive policy: SS/TSS choosing a commit's victims from the
	// state its horizon keeps, IS collecting its victims.
	PhaseVictimSelect

	// NumPhases is the sentinel counting the phases above.
	NumPhases
)

// String names the phase as it appears in probe summaries.
func (p Phase) String() string {
	switch p {
	case PhaseQueueScan:
		return "queue-scan"
	case PhaseBackfillWindow:
		return "backfill-window"
	case PhaseVictimSelect:
		return "victim-select"
	case NumPhases:
		// Sentinel, never a real phase; fall through to the panic.
	}
	panic(fmt.Sprintf("perf: Phase(%d) has no name", uint8(p)))
}

// PhaseStat is the accumulated cost of one phase: how many spans were
// recorded and their total duration.
type PhaseStat struct {
	Calls int64
	Nanos int64
}

// Stats is a complete per-phase snapshot, indexable by Phase.
type Stats [NumPhases]PhaseStat

// Probe accumulates per-phase wall-clock timing for one run. A nil
// *Probe is the disabled state and is safe to use: Begin and End are
// no-ops that never allocate (pinned by TestNilProbeZeroAllocs), so
// instrumentation sites need no nil guards of their own.
//
// A Probe is not safe for concurrent use; the simulator is
// single-threaded, so one probe per run is the intended shape.
type Probe struct {
	clock Clock
	stats Stats
}

// NewProbe returns a probe reading the given clock; a nil clock means
// Monotonic().
func NewProbe(c Clock) *Probe {
	if c == nil {
		c = Monotonic()
	}
	return &Probe{clock: c}
}

// Enabled reports whether the probe records anything.
func (p *Probe) Enabled() bool { return p != nil }

// Span is an open probe span: the clock reading Begin took. Its field
// is unexported, so code outside this package can only hand a span
// back to End, never read it as a number (see the package doc).
type Span struct {
	start int64
}

// Begin opens a span; pass it to End. On a nil probe it returns the
// zero span without touching any clock.
//
//lint:allocfree nil probe
func (p *Probe) Begin() Span {
	if p == nil {
		return Span{}
	}
	return Span{p.clock()}
}

// End closes a span opened by Begin, attributing the elapsed time to
// the phase. A no-op on a nil probe.
//
//lint:allocfree nil probe
func (p *Probe) End(ph Phase, span Span) {
	if p == nil {
		return
	}
	s := &p.stats[ph]
	s.Calls++
	s.Nanos += p.clock() - span.start
}

// Snapshot returns a copy of the per-phase totals so far.
//
//lint:allocfree nil probe
func (p *Probe) Snapshot() Stats {
	if p == nil {
		return Stats{}
	}
	return p.stats
}

// WriteSummary renders the per-phase breakdown plus, when elapsed and
// events are both positive, the run's overall throughput. Write errors
// are propagated: a truncated summary must fail loudly.
func (s Stats) WriteSummary(w io.Writer, elapsedNanos, events int64) error {
	if events > 0 && elapsedNanos > 0 {
		perSec := float64(events) / (float64(elapsedNanos) / 1e9)
		if _, err := fmt.Fprintf(w, "events=%d elapsed=%.3fs events/sec=%.0f ns/event=%.0f\n",
			events, float64(elapsedNanos)/1e9, perSec, float64(elapsedNanos)/float64(events)); err != nil {
			return err
		}
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		st := s[ph]
		if st.Calls == 0 {
			continue
		}
		pct := 0.0
		if elapsedNanos > 0 {
			pct = 100 * float64(st.Nanos) / float64(elapsedNanos)
		}
		if _, err := fmt.Fprintf(w, "phase %-15s calls=%-9d total=%.3fms ns/call=%.0f (%.1f%% of run)\n",
			ph, st.Calls, float64(st.Nanos)/1e6, float64(st.Nanos)/float64(st.Calls), pct); err != nil {
			return err
		}
	}
	return nil
}
