// Package fixture proves the //lint:perf-clock marker buys nothing
// outside pjs/internal/perf: loaded under a pjs/internal/sched path,
// the marker is rejected as a finding of its own and the wall-clock
// read it tried to cover still fires — both diagnostics, not either.
package fixture

import "time"

// Smuggled tries to carry the perf-clock exemption into scheduler code.
func Smuggled() time.Time {
	//lint:perf-clock totally legitimate timing, promise // want "only valid inside pjs/internal/perf"
	return time.Now() // want "time.Now reads the wall clock"
}

// Bare is the unadorned ban: the check keeps firing on scheduler code
// exactly as before the exemption existed.
func Bare() time.Duration {
	start := time.Now()      // want "time.Now reads the wall clock"
	return time.Since(start) // want "time.Since reads the wall clock"
}

// Clock mirrors perf.Clock: calling a value of this type reads the
// wall clock. Clock and Probe mirror internal/perf's types, so the
// name-based ban on their reads resolves against this package alone.
type Clock func() int64

// Probe mirrors perf.Probe; Snapshot reads the timings it accumulated.
type Probe struct {
	nanos int64
}

// Snapshot mirrors the probe's per-phase totals.
func (p *Probe) Snapshot() int64 { return p.nanos }

// Entry mirrors the audit entry a timing value must never reach.
type Entry struct {
	Time int64
}

// direct reads the clock straight into an entry literal.
func direct(c Clock) Entry {
	return Entry{Time: c()} // want "a perf.Clock call reads the wall clock"
}

// stashed launders the reading through a local and arithmetic; the
// read itself is the finding.
func stashed(c Clock) int64 {
	t := c() // want "a perf.Clock call reads the wall clock"
	return t + 5
}

// stamp is a helper whose return value is a reading.
func stamp(c Clock) int64 { return c() } // want "a perf.Clock call reads the wall clock"

// joined reads the clock on one branch only.
func joined(c Clock, cond bool) int64 {
	t := int64(42)
	if cond {
		t = c() // want "a perf.Clock call reads the wall clock"
	}
	return t
}

// summed reads a probe's totals into an entry.
func summed(p *Probe) Entry {
	return Entry{Time: p.Snapshot()} // want "Probe.Snapshot reads wall-clock probe timings"
}
