// Package perf is the simulator's performance-observability layer:
// a monotonic wall-clock abstraction and lightweight hot-path probes
// for the scheduler loop.
//
// Determinism boundary: nothing in this package may influence a run.
// Probes read the wall clock and accumulate timing into their own
// state; the audit log, the audit-prefix hash and the observer stream
// never see a probe value, so a probed run is byte-identical to an
// unprobed one (pinned by TestProbeDoesNotPerturbRun). The
// reverse direction is enforced statically: this package is the only
// place under pjs/internal/ where the pjslint wallclock check accepts
// a wall-clock read, and each such site must carry a justified
// //lint:perf-clock marker. The marker is rejected everywhere else, so
// the ban on time.Now in simulator code keeps its teeth. The same
// check bans calling a Clock value and Probe.Snapshot outside this
// package, and a Span is opaque: code outside this package can only
// pass it from Begin to End. No timing value can therefore arise in
// simulator code, so none can flow into an audit entry, the watermark
// hash, a checkpoint or an observer event.
package perf

import "time"

// Clock is a monotonic nanosecond clock: successive calls never go
// backwards, and differences are wall-clock durations. The zero origin
// is arbitrary (readings are only ever subtracted).
type Clock func() int64

// Monotonic returns a Clock backed by the process monotonic clock.
// This is the only sanctioned wall-clock source under pjs/internal/;
// every caller outside tests should route timing through it.
func Monotonic() Clock {
	start := time.Now() //lint:perf-clock monotonic origin of the sanctioned perf clock
	return func() int64 {
		return int64(time.Since(start)) //lint:perf-clock monotonic reading of the sanctioned perf clock
	}
}

// ManualClock is a hand-advanced Clock source for deterministic tests:
// Now returns the current reading, Advance moves it forward.
type ManualClock struct {
	t int64
}

// Now implements the Clock contract for the manual source.
func (c *ManualClock) Now() int64 { return c.t }

// Advance moves the clock forward by d nanoseconds.
func (c *ManualClock) Advance(d int64) { c.t += d }

// Clock returns the ManualClock as a Clock function value.
func (c *ManualClock) Clock() Clock { return c.Now }
