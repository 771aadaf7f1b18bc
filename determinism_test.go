package pjs_test

import (
	"fmt"
	"strings"
	"testing"

	"pjs"
	"pjs/internal/check"
	"pjs/internal/obs"
)

// TestSchedulerRegistryDoubleRunDeterminism runs every registered
// policy twice over the same seeded synthetic workload and asserts the
// two audit logs are byte-identical. This is the dynamic complement to
// the pjslint static checks: stablesort/maporder ban the code shapes
// of known nondeterminism (unstable sorts, map iteration), while this
// test catches any source the checks cannot see (hidden global state,
// order that arrives through an interface from outside their scope,
// ...).
func TestSchedulerRegistryDoubleRunDeterminism(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 300, Seed: 7})
	for _, spec := range pjs.SchedulerSpecs() {
		t.Run(spec, func(t *testing.T) {
			run := func() string {
				s, err := pjs.NewScheduler(spec)
				if err != nil {
					t.Fatalf("NewScheduler(%q): %v", spec, err)
				}
				res := pjs.Simulate(trace, s, pjs.Options{Audit: true, MaxSteps: 10_000_000})
				return res.Audit.String()
			}
			a, b := run(), run()
			if a != b {
				t.Errorf("%s: audit logs differ between identical runs (%d vs %d bytes):\n%s",
					spec, len(a), len(b), firstDivergence(a, b))
			}
		})
	}
}

// TestDoubleRunDeterminismWithOverhead repeats the double-run check for
// the preemptive policies under the disk overhead model, which
// exercises the suspend/resume and pending-claim machinery the
// zero-overhead runs skip.
func TestDoubleRunDeterminismWithOverhead(t *testing.T) {
	trace := pjs.Generate(pjs.CTC(), pjs.GenOptions{Jobs: 250, Seed: 11})
	for _, spec := range []string{"ss:2", "tss:2", "ssmig:2", "gang"} {
		t.Run(spec, func(t *testing.T) {
			run := func() string {
				s, err := pjs.NewScheduler(spec)
				if err != nil {
					t.Fatalf("NewScheduler(%q): %v", spec, err)
				}
				opt := pjs.DiskOverhead()
				opt.Audit = true
				opt.MaxSteps = 10_000_000
				res := pjs.Simulate(trace, s, opt)
				return res.Audit.String()
			}
			a, b := run(), run()
			if a != b {
				t.Errorf("%s: audit logs differ between identical runs (%d vs %d bytes):\n%s",
					spec, len(a), len(b), firstDivergence(a, b))
			}
		})
	}
}

// TestSchedulerSpecsAllConstruct pins the registry to NewScheduler:
// every listed spec must build, and the registry must cover each
// distinct policy name exactly once.
func TestSchedulerSpecsAllConstruct(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range pjs.SchedulerSpecs() {
		s, err := pjs.NewScheduler(spec)
		if err != nil {
			t.Errorf("registry spec %q does not construct: %v", spec, err)
			continue
		}
		if seen[s.Name()] {
			t.Errorf("registry spec %q duplicates policy %q", spec, s.Name())
		}
		seen[s.Name()] = true
	}
}

// TestFaultInjectionDoubleRunDeterminism runs every registered policy
// twice over the same workload WITH deterministic fault injection and
// asserts byte-identical audit logs and counter reports. The fault
// streams are per-processor seeded PRNGs, so the injected schedule must
// not depend on event interleavings or policy behavior; any divergence
// here means nondeterminism leaked into (or out of) the failure path.
// Each faulty log must also replay cleanly through the invariant
// checker — kills, stranded images and down-processor exclusion
// included.
func TestFaultInjectionDoubleRunDeterminism(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 200, Seed: 21})
	faults := pjs.FaultConfig{MTBF: 500 * 3600, MTTR: 2 * 3600, Seed: 17}
	for _, spec := range pjs.SchedulerSpecs() {
		t.Run(spec, func(t *testing.T) {
			run := func() (audit, counters string, failures int) {
				s, err := pjs.NewScheduler(spec)
				if err != nil {
					t.Fatalf("NewScheduler(%q): %v", spec, err)
				}
				c := obs.NewCounters(s.Name(), trace.Procs)
				opt := pjs.Options{Audit: true, MaxSteps: 50_000_000, Observer: c, Faults: faults}
				res, err := pjs.SimulateChecked(trace, s, opt)
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				if cerr := check.Check(res.Audit, check.OptionsFor(s, opt)); cerr != nil {
					t.Fatalf("%s: faulty audit replay: %v", spec, cerr)
				}
				return res.Audit.String(), c.String(), res.Failures
			}
			a1, c1, f1 := run()
			a2, c2, _ := run()
			if f1 == 0 {
				t.Fatalf("%s: fault model injected no failures", spec)
			}
			if a1 != a2 {
				t.Errorf("%s: faulty audit logs differ (%d vs %d bytes):\n%s",
					spec, len(a1), len(a2), firstDivergence(a1, a2))
			}
			if c1 != c2 {
				t.Errorf("%s: faulty counter reports differ:\nrun1:\n%s\nrun2:\n%s", spec, c1, c2)
			}
		})
	}
}

// TestTransientFaultDoubleRunDeterminism runs every registered policy
// twice over the same workload WITH transient suspend/restart I/O fault
// injection (under the disk overhead model, so the injected I/O has
// nonzero duration) and asserts byte-identical audit logs, counter
// reports and Perfetto trace JSON. The transient streams are
// per-processor counter-seeded, so the failure pattern must not depend
// on policy behavior or event interleaving; each faulty log must also
// replay cleanly through the invariant checker.
func TestTransientFaultDoubleRunDeterminism(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 200, Seed: 21})
	// A huge health window with threshold 1 makes degradation permanent
	// and monotone: every policy provably converges to non-preemptive
	// behavior on the flaky processors instead of thrashing, so the test
	// terminates even at a 30% per-processor failure rate. (Recovery via
	// the default finite window is exercised by the targeted sched
	// tests and the CI chaos smoke.)
	trans := pjs.TransientFaultConfig{
		WriteFailProb: 0.3, ReadFailProb: 0.3, Seed: 9,
		HealthThreshold: 1, HealthWindow: 1 << 40,
	}
	for _, spec := range pjs.SchedulerSpecs() {
		t.Run(spec, func(t *testing.T) {
			run := func() (audit, counters, traceJSON string, retries int) {
				s, err := pjs.NewScheduler(spec)
				if err != nil {
					t.Fatalf("NewScheduler(%q): %v", spec, err)
				}
				c := obs.NewCounters(s.Name(), trace.Procs)
				tb := obs.NewTraceBuilder(trace.Procs)
				opt := pjs.DiskOverhead()
				opt.Audit = true
				opt.MaxSteps = 50_000_000
				opt.Observer = obs.NewFanOut(c, tb)
				opt.Transient = trans
				res, err := pjs.SimulateChecked(trace, s, opt)
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				if cerr := check.Check(res.Audit, check.OptionsFor(s, opt)); cerr != nil {
					t.Fatalf("%s: transient-faulty audit replay: %v", spec, cerr)
				}
				var buf strings.Builder
				if werr := tb.WriteJSON(&buf); werr != nil {
					t.Fatalf("%s: trace JSON: %v", spec, werr)
				}
				return res.Audit.String(), c.String(), buf.String(), res.IORetries
			}
			a1, c1, t1, r1 := run()
			a2, c2, t2, _ := run()
			if spec == "ss:2" && r1 == 0 {
				t.Fatalf("%s: transient fault model injected no I/O retries", spec)
			}
			if a1 != a2 {
				t.Errorf("%s: transient audit logs differ (%d vs %d bytes):\n%s",
					spec, len(a1), len(a2), firstDivergence(a1, a2))
			}
			if c1 != c2 {
				t.Errorf("%s: transient counter reports differ:\nrun1:\n%s\nrun2:\n%s", spec, c1, c2)
			}
			if t1 != t2 {
				t.Errorf("%s: transient trace JSON differs (%d vs %d bytes):\n%s",
					spec, len(t1), len(t2), firstDivergence(t1, t2))
			}
		})
	}
}

// firstDivergence renders the first differing line of two audit logs
// for a readable failure message.
func firstDivergence(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  run1: %s\n  run2: %s", i+1, al[i], bl[i])
		}
	}
	return "logs diverge only in length"
}
