package pjs_test

import (
	"testing"

	"pjs"
	"pjs/internal/sched"
)

// TestCrashEquivalenceMatrix is the acceptance property for
// checkpoint/resume: for EVERY policy in the scheduler registry, with
// and without fault injection, a run that is checkpointed and resumed
// from a watermark produces the byte-identical audit log of the
// uninterrupted run. Each (policy, fault) cell takes periodic
// watermarks from a reference run and replays a sample of them —
// first, two interior, and the last — through a fresh scheduler.
func TestCrashEquivalenceMatrix(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 160, Seed: 9})
	// The transient cells reuse the monotone-degradation configuration of
	// TestTransientFaultDoubleRunDeterminism (see there for why), plus the
	// disk overhead model so the injected I/O has nonzero duration.
	trans := pjs.TransientFaultConfig{
		WriteFailProb: 0.2, ReadFailProb: 0.2, Seed: 9,
		HealthThreshold: 1, HealthWindow: 1 << 40,
	}
	faultModes := []struct {
		name      string
		faults    pjs.FaultConfig
		transient pjs.TransientFaultConfig
	}{
		{"nofault", pjs.FaultConfig{}, pjs.TransientFaultConfig{}},
		{"faults", pjs.FaultConfig{MTBF: 300 * 3600, MTTR: 2 * 3600, Seed: 5}, pjs.TransientFaultConfig{}},
		{"transient", pjs.FaultConfig{}, trans},
		{"faults+transient", pjs.FaultConfig{MTBF: 300 * 3600, MTTR: 2 * 3600, Seed: 5}, trans},
	}
	for _, fm := range faultModes {
		for _, spec := range pjs.SchedulerSpecs() {
			t.Run(fm.name+"/"+spec, func(t *testing.T) {
				newSched := func() pjs.Scheduler {
					s, err := pjs.NewScheduler(spec)
					if err != nil {
						t.Fatalf("NewScheduler(%q): %v", spec, err)
					}
					return s
				}
				baseOpt := pjs.Options{}
				if fm.transient.Enabled() {
					baseOpt = pjs.DiskOverhead()
				}
				var snaps []sched.Snapshot
				refOpt := baseOpt
				refOpt.Audit = true
				refOpt.MaxSteps = 50_000_000
				refOpt.Faults = fm.faults
				refOpt.Transient = fm.transient
				refOpt.Checkpoint = &sched.CheckpointConfig{
					Every: 100,
					Save:  func(s sched.Snapshot) error { snaps = append(snaps, s); return nil },
				}
				ref, err := pjs.SimulateChecked(trace, newSched(), refOpt)
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				if len(snaps) == 0 {
					t.Fatal("reference run took no checkpoints")
				}
				want := ref.Audit.String()
				for _, i := range watermarkSample(len(snaps)) {
					snap := snaps[i]
					resOpt := baseOpt
					resOpt.Audit = true
					resOpt.MaxSteps = 50_000_000
					resOpt.Faults = fm.faults
					resOpt.Transient = fm.transient
					resOpt.Resume = &snap
					res, err := pjs.SimulateChecked(trace, newSched(), resOpt)
					if err != nil {
						t.Fatalf("resume from event %d: %v", snap.Events, err)
					}
					if got := res.Audit.String(); got != want {
						t.Errorf("resume from event %d: audit log differs from uninterrupted run:\n%s",
							snap.Events, firstDivergence(got, want))
					}
				}
			})
		}
	}
}

// watermarkSample picks up to four distinct indices out of n: the
// first, two interior thirds, and the last.
func watermarkSample(n int) []int {
	idx := []int{0, n / 3, 2 * n / 3, n - 1}
	out := idx[:0]
	seen := -1
	for _, i := range idx {
		if i > seen {
			out = append(out, i)
			seen = i
		}
	}
	return out
}
