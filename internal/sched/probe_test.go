package sched_test

import (
	"testing"

	"pjs/internal/perf"
	"pjs/internal/sched"
	"pjs/internal/sched/conservative"
	"pjs/internal/sched/depthbf"
	"pjs/internal/sched/easy"
	"pjs/internal/sched/is"
	"pjs/internal/sched/ss"
	"pjs/internal/workload"
)

// probeTrace is a small synthetic workload under overload, so that
// queues build up: SS's tick-driven preemption routine and IS's
// immediate service find victims and the backfilling policies compute
// reservation windows.
func probeTrace() *workload.Trace {
	m := workload.CTC()
	m.OfferedLoad = 1.2
	return workload.Generate(m, workload.GenOptions{Jobs: 120, Seed: 7})
}

// probePolicies are the policies that instrument probe phases, each
// with the phases it is expected to record under probeTrace and
// whether it must suspend jobs there.
var probePolicies = []struct {
	name     string
	new      func() sched.Scheduler
	phases   []perf.Phase
	preempts bool
}{
	{"ss:2", func() sched.Scheduler { return ss.New(ss.Config{SF: 2}) },
		[]perf.Phase{perf.PhaseQueueScan, perf.PhaseVictimSelect}, true},
	{"is", func() sched.Scheduler { return is.New() },
		[]perf.Phase{perf.PhaseQueueScan, perf.PhaseVictimSelect}, true},
	{"ns", func() sched.Scheduler { return easy.New() },
		[]perf.Phase{perf.PhaseQueueScan, perf.PhaseBackfillWindow}, false},
	{"conservative", func() sched.Scheduler { return conservative.New() },
		[]perf.Phase{perf.PhaseQueueScan, perf.PhaseBackfillWindow}, false},
	{"depth:2", func() sched.Scheduler { return depthbf.New(2) },
		[]perf.Phase{perf.PhaseQueueScan, perf.PhaseBackfillWindow}, false},
}

// TestProbeDoesNotPerturbRun is the determinism acceptance criterion:
// for every instrumented policy, the audit log of a run with a probe
// attached is byte-identical to the unprobed run's, and two probed runs
// agree with each other. Timing lives strictly outside the audit log,
// the watermark hash and the observer stream, so profiling can never
// change what a run computes.
func TestProbeDoesNotPerturbRun(t *testing.T) {
	tr := probeTrace()
	for _, tc := range probePolicies {
		t.Run(tc.name, func(t *testing.T) {
			plain := sched.Run(tr, tc.new(), sched.Options{Audit: true})
			probed1 := sched.Run(tr, tc.new(), sched.Options{Audit: true, Probe: perf.NewProbe(nil)})
			probed2 := sched.Run(tr, tc.new(), sched.Options{Audit: true, Probe: perf.NewProbe(nil)})

			if plain.Audit.String() != probed1.Audit.String() {
				t.Fatal("audit log diverges when a probe is attached")
			}
			if probed1.Audit.String() != probed2.Audit.String() {
				t.Fatal("two probed runs produced different audit logs")
			}
			if plain.Events != probed1.Events || plain.Events == 0 {
				t.Fatalf("event counts diverge: plain=%d probed=%d", plain.Events, probed1.Events)
			}
		})
	}
}

// TestProbeObservesAllPhases proves the probe wiring reaches every
// phase: each policy, probed under overload, must record spans for the
// phases it instruments, and a preemptive policy must actually suspend
// jobs, so victim selection is exercised with victims found. Under NS
// the backfill windows must nest in the queue scans.
func TestProbeObservesAllPhases(t *testing.T) {
	tr := probeTrace()
	for _, tc := range probePolicies {
		t.Run(tc.name, func(t *testing.T) {
			p := perf.NewProbe(nil)
			res := sched.Run(tr, tc.new(), sched.Options{Probe: p})
			s := p.Snapshot()
			for _, ph := range tc.phases {
				if s[ph].Calls == 0 {
					t.Errorf("phase %s recorded no spans", ph)
				}
			}
			if tc.preempts && res.Suspensions == 0 {
				t.Error("overload trace produced no preemptions; victim-select phase untested")
			}
			// Phases are inclusive: EASY computes each backfill window
			// inside a queue scan, so the window cannot outlast the scans.
			if tc.name == "ns" && s[perf.PhaseBackfillWindow].Nanos > s[perf.PhaseQueueScan].Nanos {
				t.Errorf("backfill-window spans took %d ns, more than the queue scans that contain them (%d ns)",
					s[perf.PhaseBackfillWindow].Nanos, s[perf.PhaseQueueScan].Nanos)
			}
		})
	}
}
