package sched_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"pjs"
	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/sched/is"
	"pjs/internal/sched/ss"
	"pjs/internal/workload"
)

// quietMode is a fault setting of the quiet-tick differential test.
type quietMode struct {
	name      string
	faults    fault.Config
	transient fault.TransientConfig
}

var (
	quietFaults = fault.Config{MTBF: 500 * 3600, MTTR: 2 * 3600, Seed: 17}
	// A huge health window with threshold 1 makes degradation
	// permanent, so every policy converges at a 30% failure rate.
	quietTransient = fault.TransientConfig{
		WriteFailProb: 0.3, ReadFailProb: 0.3, Seed: 9,
		HealthThreshold: 1, HealthWindow: 1 << 40,
	}
	quietModes = []quietMode{
		{name: "nofault"},
		{name: "fault", faults: quietFaults},
		{name: "transient", transient: quietTransient},
		{name: "both", faults: quietFaults, transient: quietTransient},
	}
	// quietRestore is TestIORestoredFollowsDegraded's configuration: a
	// finite health window, so degraded processors are restored while
	// the run goes on. Only the SS family and IS converge under it.
	quietRestore = quietMode{name: "restore", transient: fault.TransientConfig{
		WriteFailProb: 0.3, ReadFailProb: 0.3, Seed: 9,
		HealthWindow: 3600, HealthThreshold: 1,
	}}
)

// quietSS are SS configurations outside the registry, each changing
// what the horizon must account for.
var quietSS = []struct {
	name string
	cfg  func() ss.Config
}{
	{"tss-adaptive:1.5", func() ss.Config { return ss.Config{SF: 1.5, Limits: &ss.AdaptiveLimits{}} }},
	{"tss-static:2", func() ss.Config {
		var avg [16]float64
		for i := range avg {
			avg[i] = 1.5 + float64(i%4)
		}
		return ss.Config{SF: 2, Limits: ss.LimitsFromSlowdowns(avg)}
	}},
	{"ss-maxsusp1:2", func() ss.Config { return ss.Config{SF: 2, MaxSuspensions: 1} }},
	{"ss-nohalfwidth:2", func() ss.Config { return ss.Config{SF: 2, DisableHalfWidthRule: true} }},
	{"ss-tick600:2", func() ss.Config { return ss.Config{SF: 2, TickSeconds: 600} }},
}

// tickCalls counts the OnTick calls the driver makes to a policy.
type tickCalls struct {
	sched.Scheduler
	n int
}

func (c *tickCalls) OnTick() {
	c.n++
	c.Scheduler.OnTick()
}

// tickBeats counts tick heartbeats.
type tickBeats int

func (b *tickBeats) Observe(ev sched.Event) {
	if ev.Action == sched.ActTick {
		*b++
	}
}

// quietCase runs tr under two fresh instances of a policy — one as the
// driver runs it, one with every tick delivered — and requires
// byte-identical audit logs and equal tallies and event counts. It
// returns the OnTick calls and tick heartbeats of the first run.
func quietCase(t *testing.T, tr *workload.Trace, newSched func() sched.Scheduler, mode quietMode) (calls, beats int) {
	t.Helper()
	run := func(s sched.Scheduler, obs sched.Observer) *sched.Result {
		t.Helper()
		res, err := sched.RunChecked(tr, s, sched.Options{
			Audit:     true,
			Overhead:  overhead.Disk{},
			MaxSteps:  20_000_000,
			Faults:    mode.faults,
			Transient: mode.transient,
			Observer:  obs,
		})
		if err != nil {
			t.Fatalf("RunChecked: %v", err)
		}
		return res
	}
	c := &tickCalls{Scheduler: newSched()}
	var b tickBeats
	got := run(c, &b)
	want := run(sched.TickAlways(newSched()), nil)
	if g, w := got.Audit.String(), want.Audit.String(); g != w {
		t.Fatalf("audit logs differ with quiet ticks (%d entries) and without (%d entries):\n%s",
			len(got.Audit.Entries), len(want.Audit.Entries), firstDiff(g, w))
	}
	if got.Tally != want.Tally || got.Events != want.Events || got.Suspensions != want.Suspensions {
		t.Fatalf("quiet ticks: tally %+v, %d events, %d suspensions; every tick: %+v, %d events, %d suspensions",
			got.Tally, got.Events, got.Suspensions, want.Tally, want.Events, want.Suspensions)
	}
	if mode.name == quietRestore.name && got.IORestores == 0 {
		t.Fatal("no processor was restored to I/O health; the restore path is untested")
	}
	return c.n, int(b)
}

// TestQuietTicksMatchEveryTick is the differential test of the driver's
// quiet ticks: skipping the OnTick calls a policy declared quiet must
// not change a single audit entry. It covers every registry policy
// under every fault mode, SS configurations outside the registry, the
// finite-health-window transient configuration — the only one that
// restores degraded processors mid-run — a trace of equal estimates
// under one-second ticks, where crossings fall exactly on ticks, and a
// sparse trace of wide jobs, where IS's protected slices expire between
// events.
func TestQuietTicksMatchEveryTick(t *testing.T) {
	tr := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 200, Seed: 21})
	for _, spec := range pjs.SchedulerSpecs() {
		newSched := func() sched.Scheduler {
			s, err := pjs.NewScheduler(spec)
			if err != nil {
				t.Fatalf("NewScheduler(%q): %v", spec, err)
			}
			return s
		}
		modes := quietModes
		switch spec {
		case "ss:2", "tss:2", "ssmig:2", "is":
			modes = append(modes[:len(modes):len(modes)], quietRestore)
		}
		for _, mode := range modes {
			t.Run(spec+"/"+mode.name, func(t *testing.T) {
				calls, beats := quietCase(t, tr, newSched, mode)
				if mode.name != "nofault" {
					return
				}
				switch {
				case spec == "ss:2" && 2*calls > beats:
					t.Errorf("SS:2 ran its tick routine on %d of %d ticks; the horizon skips too little for this test to mean anything", calls, beats)
				case spec == "is" && 4*calls > beats:
					t.Errorf("IS ran its tick routine on %d of %d ticks, more than 25%%", calls, beats)
				}
			})
		}
	}
	for _, c := range quietSS {
		for _, mode := range append(quietModes[:len(quietModes):len(quietModes)], quietRestore) {
			t.Run(c.name+"/"+mode.name, func(t *testing.T) {
				quietCase(t, tr, func() sched.Scheduler { return ss.New(c.cfg()) }, mode)
			})
		}
	}
	sparse := sparseWideTrace(3, 150)
	t.Run("sparse-wide/is", func(t *testing.T) {
		calls, beats := quietCase(t, sparse, func() sched.Scheduler { return is.New() }, quietModes[0])
		t.Logf("OnTick on %d of %d ticks", calls, beats)
	})
	eq := equalEstimateTrace(2, 200)
	for _, sf := range []float64{1.5, 2} {
		t.Run(fmt.Sprintf("equal-estimates/ss-tick1:%g", sf), func(t *testing.T) {
			calls, beats := quietCase(t, eq, func() sched.Scheduler { return ss.New(ss.Config{SF: sf, TickSeconds: 1}) }, quietModes[0])
			t.Logf("OnTick on %d of %d ticks", calls, beats)
		})
	}
}

// equalEstimateTrace returns n jobs on 16 processors that all estimate
// 49 s, so xfactors of idle and running jobs share a denominator and SF
// crossings land on whole seconds, where float rounding decides.
func equalEstimateTrace(seed uint64, n int) *workload.Trace {
	rng := rand.New(rand.NewPCG(seed, 0))
	tr := &workload.Trace{Name: "equal-estimates", Procs: 16}
	var at int64
	for i := 1; i <= n; i++ {
		at += rng.Int64N(20)
		tr.Jobs = append(tr.Jobs, job.New(i, at, 5+rng.Int64N(45), 49, 1+rng.IntN(16)))
	}
	return tr
}

// sparseWideTrace returns n wide jobs on 8 processors with arrival gaps
// of up to 900 s and run times of 300–20,000 s. Protected slices then
// often expire with no event nearby, so a tick the IS horizon skips by
// mistake shows as a later start or suspension.
func sparseWideTrace(seed uint64, n int) *workload.Trace {
	rng := rand.New(rand.NewPCG(seed, 0))
	tr := &workload.Trace{Name: "sparse-wide", Procs: 8}
	var at int64
	for i := 1; i <= n; i++ {
		at += rng.Int64N(901)
		run := 300 + rng.Int64N(19_701)
		tr.Jobs = append(tr.Jobs, job.New(i, at, run, run+rng.Int64N(run), 2+rng.IntN(7)))
	}
	return tr
}
