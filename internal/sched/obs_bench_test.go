package sched_test

import (
	"math"
	"testing"

	"pjs/internal/obs"
	"pjs/internal/overhead"
	"pjs/internal/perf"
	"pjs/internal/sched"
	"pjs/internal/sched/ss"
	"pjs/internal/workload"
)

// benchTrace is the shared workload for the observer-cost benchmarks;
// SS under disk overhead exercises every emit call site (starts,
// suspends, resumes, ticks).
func benchTrace() *workload.Trace {
	return workload.Generate(workload.SDSC(),
		workload.GenOptions{Jobs: 400, Seed: 3})
}

// BenchmarkRunObserverNil is the uninstrumented baseline. Compare with
// BenchmarkRunObserverFanout: the acceptance bar for the observer layer
// is that this benchmark is unaffected by its existence (every call
// site is guarded, no Event is ever built) and that the fan-out costs
// only what its sinks cost.
func BenchmarkRunObserverNil(b *testing.B) {
	trace := benchTrace()
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res := sched.Run(trace, ss.New(ss.Config{SF: 2}),
			sched.Options{Overhead: overhead.Disk{}})
		events += res.Events
	}
	reportEventsPerSec(b, events)
}

// reportEventsPerSec attaches engine-event throughput as a custom
// metric — the unit `psim -perf` and the facade benchmarks also report.
func reportEventsPerSec(b *testing.B, events int64) {
	if s := b.Elapsed().Seconds(); s > 0 && events > 0 {
		b.ReportMetric(float64(events)/s, "events/s")
	}
}

// BenchmarkRunObserverFanout runs the same simulation with the full
// sink set (counters + sampler + trace builder) behind a fan-out —
// the worst-case instrumented configuration psim can ask for.
func BenchmarkRunObserverFanout(b *testing.B) {
	trace := benchTrace()
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		opt := sched.Options{Overhead: overhead.Disk{}}
		opt.Observer = obs.NewFanOut(
			obs.NewTraceBuilder(trace.Procs),
			obs.NewSampler(trace.Procs),
			obs.NewCounters("bench", trace.Procs),
		)
		res := sched.Run(trace, ss.New(ss.Config{SF: 2}), opt)
		events += res.Events
	}
	reportEventsPerSec(b, events)
}

// BenchmarkRunProbed is the self-profiling analogue of the fan-out
// benchmark: same simulation with a perf probe attached. Compare with
// BenchmarkRunObserverNil to read off the probe's own overhead.
func BenchmarkRunProbed(b *testing.B) {
	trace := benchTrace()
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		opt := sched.Options{Overhead: overhead.Disk{}, Probe: perf.NewProbe(nil)}
		res := sched.Run(trace, ss.New(ss.Config{SF: 2}), opt)
		events += res.Events
	}
	reportEventsPerSec(b, events)
}

// TestUtilizationIntegralMatchesClusterIntegral pins the audit-log
// occupancy replay to the live cluster busy integral: both count a
// job's processors busy from dispatch until release (suspension writes
// included), so on the same audited run they must agree to rounding.
func TestUtilizationIntegralMatchesClusterIntegral(t *testing.T) {
	trace := benchTrace()
	res := sched.Run(trace, ss.New(ss.Config{SF: 2}),
		sched.Options{Overhead: overhead.Disk{}, Audit: true})
	got, ok := res.UtilizationIntegral()
	if !ok {
		t.Fatal("UtilizationIntegral not computable on an audited run")
	}
	if math.Abs(got-res.Utilization) > 1e-9 {
		t.Fatalf("audit occupancy %.12f != cluster utilization %.12f",
			got, res.Utilization)
	}
	if res.Suspensions == 0 {
		t.Fatal("workload produced no suspensions; test lost its bite")
	}

	// Without an audit log the replay must decline, not guess.
	res.Audit = nil
	if _, ok := res.UtilizationIntegral(); ok {
		t.Fatal("UtilizationIntegral computed without an audit log")
	}
}
