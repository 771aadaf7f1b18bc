package pjs_test

import (
	"bytes"
	"testing"

	"pjs"
	"pjs/internal/obs"
	"pjs/internal/sched"
)

// TestCountersMatchAuditLog cross-validates the observer path against
// the audit path: for every registered policy under each fault mode,
// one instrumented audited run, then a replay of AuditLog.Entries must
// reproduce the observer's action counts exactly, and the observer's
// fault/IO tally must equal the run's. The two records are produced by
// independent code paths off the same engine events, so any drift (a
// missed emit call site, a double count) shows up as a mismatch here.
func TestCountersMatchAuditLog(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 300, Seed: 7})
	for _, spec := range pjs.SchedulerSpecs() {
		t.Run(spec, func(t *testing.T) {
			for _, mode := range goldenModes {
				t.Run(mode.name, func(t *testing.T) {
					countersMatchAuditLog(t, trace, spec, mode.faults, mode.transient)
				})
			}
		})
	}
}

func countersMatchAuditLog(t *testing.T, trace *pjs.Trace, spec string, faults pjs.FaultConfig, transient pjs.TransientFaultConfig) {
	s, err := pjs.NewScheduler(spec)
	if err != nil {
		t.Fatalf("NewScheduler(%q): %v", spec, err)
	}
	c := obs.NewCounters(s.Name(), trace.Procs)
	opt := pjs.DiskOverhead()
	opt.Audit = true
	opt.MaxSteps = 50_000_000
	opt.Observer = c
	opt.Faults = faults
	opt.Transient = transient
	res, err := pjs.SimulateChecked(trace, s, opt)
	if err != nil {
		t.Fatal(err)
	}

	var want obs.Counters
	var replay sched.Tally
	prev := sched.ActArrive
	for _, e := range res.Audit.Entries {
		replay.Count(e.Action, prev, 0)
		prev = e.Action
		switch e.Action {
		case sched.ActArrive:
			want.Arrivals++
		case sched.ActStart:
			want.Starts++
		case sched.ActResume:
			want.Resumes++
		case sched.ActSuspendBegin:
			want.SuspendBegins++
		case sched.ActSuspendDone:
			want.SuspendDones++
		case sched.ActFinish:
			want.Finishes++
		case sched.ActKill:
			want.Kills++
		case sched.ActImageLost, sched.ActProcFail, sched.ActProcRepair, sched.ActIORetry,
			sched.ActIOExhausted, sched.ActIODegraded, sched.ActIORestored:
			// Tallied by the replay above.
		default:
			t.Fatalf("unexpected audit action %v", e.Action)
		}
	}

	got := c.Snapshot()
	type pair struct {
		name      string
		got, want int64
	}
	for _, p := range []pair{
		{"arrivals", got.Arrivals, want.Arrivals},
		{"starts", got.Starts, want.Starts},
		{"resumes", got.Resumes, want.Resumes},
		{"suspend-begins", got.SuspendBegins, want.SuspendBegins},
		{"suspend-dones", got.SuspendDones, want.SuspendDones},
		{"finishes", got.Finishes, want.Finishes},
		{"kills", got.Kills, want.Kills},
	} {
		if p.got != p.want {
			t.Errorf("%s: observer counted %d %s, audit log has %d",
				spec, p.got, p.name, p.want)
		}
	}
	if got.Tally != res.Tally {
		t.Errorf("%s: observer tally %+v, result tally %+v", spec, got.Tally, res.Tally)
	}
	// Audit entries carry no lost work; every other tally replays.
	replay.LostWorkSeconds = res.LostWorkSeconds
	if replay != res.Tally {
		t.Errorf("%s: audit replay tally %+v, result tally %+v", spec, replay, res.Tally)
	}
	if got.Arrivals != int64(len(trace.Jobs)) {
		t.Errorf("%s: observer counted %d arrivals, trace has %d jobs",
			spec, got.Arrivals, len(trace.Jobs))
	}
	if got.Finishes != int64(len(trace.Jobs)) {
		t.Errorf("%s: observer counted %d finishes, trace has %d jobs",
			spec, got.Finishes, len(trace.Jobs))
	}
}

// TestInstrumentedRunDeterminism extends the double-run regression to
// every observability artifact: two identical instrumented runs must
// produce byte-identical Perfetto trace JSON, time-series CSV and
// counter dumps. This is what licenses diffing exported artifacts
// across commits as a change detector.
func TestInstrumentedRunDeterminism(t *testing.T) {
	trace := pjs.Generate(pjs.CTC(), pjs.GenOptions{Jobs: 250, Seed: 11})
	for _, spec := range []string{"ns", "ss:2"} {
		t.Run(spec, func(t *testing.T) {
			run := func() (traceJSON, tsCSV, dump string) {
				s, err := pjs.NewScheduler(spec)
				if err != nil {
					t.Fatalf("NewScheduler(%q): %v", spec, err)
				}
				tb := obs.NewTraceBuilder(trace.Procs)
				sm := obs.NewSampler(trace.Procs)
				c := obs.NewCounters(s.Name(), trace.Procs)
				opt := pjs.DiskOverhead()
				opt.MaxSteps = 10_000_000
				opt.Observer = obs.NewFanOut(tb, sm, c)
				pjs.Simulate(trace, s, opt)

				var jb, cb bytes.Buffer
				if err := tb.WriteJSON(&jb); err != nil {
					t.Fatalf("WriteJSON: %v", err)
				}
				if err := sm.WriteCSV(&cb); err != nil {
					t.Fatalf("WriteCSV: %v", err)
				}
				return jb.String(), cb.String(), c.String()
			}
			j1, c1, d1 := run()
			j2, c2, d2 := run()
			if j1 != j2 {
				t.Errorf("%s: trace JSON differs between identical runs (%d vs %d bytes)",
					spec, len(j1), len(j2))
			}
			if c1 != c2 {
				t.Errorf("%s: time-series CSV differs between identical runs:\n%s",
					spec, firstDivergence(c1, c2))
			}
			if d1 != d2 {
				t.Errorf("%s: counter dumps differ between identical runs:\n%s",
					spec, firstDivergence(d1, d2))
			}
			if _, err := obs.ValidateTrace([]byte(j1)); err != nil {
				t.Errorf("%s: exported trace does not validate: %v", spec, err)
			}
		})
	}
}
