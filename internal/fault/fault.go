// Package fault is the deterministic processor-fault model: seeded
// exponential fail/repair delays, one independent PRNG stream per
// processor. The paper's suspension mechanism writes a preempted job's
// memory image to the *local disks* of its processors and restarts it on
// exactly the same set (Section II-C), so a processor failure does not
// just kill the job running there — it also strands every suspended
// image parked on that node. This package only samples delays; the
// scheduler driver (internal/sched) owns the failure semantics.
//
// Determinism: stream p is consumed strictly in processor-p timeline
// order (first fail, then alternating repair/fail), so two runs with the
// same Config produce the identical fault schedule regardless of how
// events from different processors interleave globally.
package fault

import "math/rand"

// Config parameterizes fault injection for one run. The zero value
// disables injection entirely. The JSON names are the serialized form
// of the knobs in checkpoints and experiment memo keys; every field is
// omitempty, so a configuration without faults encodes to nothing.
type Config struct {
	// MTBF is the mean time between failures of one processor, in
	// seconds of virtual time. Zero (or negative) disables injection.
	MTBF int64 `json:"mtbf,omitempty"`
	// MTTR is the mean time to repair a failed processor, in seconds.
	// When MTBF is set and MTTR <= 0, failures are permanent: the
	// processor never returns to service.
	MTTR int64 `json:"mttr,omitempty"`
	// Seed seeds the per-processor PRNG streams. Two runs with equal
	// Config sample identical fault schedules.
	Seed int64 `json:"fault_seed,omitempty"`
}

// Enabled reports whether the configuration injects any faults.
func (c Config) Enabled() bool { return c.MTBF > 0 }

// Permanent reports whether failed processors stay down forever.
func (c Config) Permanent() bool { return c.MTTR <= 0 }

// Injector samples fail/repair delays from per-processor streams. Build
// a fresh Injector per run (sched.Run does) — the streams are stateful.
type Injector struct {
	cfg     Config
	streams []*rand.Rand
}

// NewInjector returns an injector for cfg. It is valid (and a no-op
// source) even when cfg is disabled; callers gate on cfg.Enabled.
func NewInjector(cfg Config) *Injector {
	return &Injector{cfg: cfg}
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// Permanent reports whether failed processors stay down forever.
func (in *Injector) Permanent() bool { return in.cfg.Permanent() }

// stream returns processor p's PRNG, growing the table on first use.
// Each stream is seeded by a splitmix64-style mix of the run seed and
// the processor index, so the streams are mutually independent and a
// processor's schedule does not depend on how many processors exist.
func (in *Injector) stream(p int) *rand.Rand {
	for len(in.streams) <= p {
		in.streams = append(in.streams,
			rand.New(newLazySource(mix(in.cfg.Seed, int64(len(in.streams))))))
	}
	return in.streams[p]
}

// mix is the splitmix64 finalizer over (seed, lane), masked to a
// non-negative int64 for rand.NewSource.
func mix(seed, lane int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(lane+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & (1<<62 - 1))
}

// FailDelay samples the seconds until processor p's next failure,
// counted from now (its repair, or the start of the run). Always >= 1.
func (in *Injector) FailDelay(p int) int64 { return delay(in.stream(p), in.cfg.MTBF) }

// RepairDelay samples the seconds processor p stays down. Always >= 1.
// Meaningless (and never called by the driver) under Permanent.
func (in *Injector) RepairDelay(p int) int64 { return delay(in.stream(p), in.cfg.MTTR) }

// delay draws an exponential variate with the given mean, clamped to at
// least one second so fail and repair never collapse onto one instant.
func delay(r *rand.Rand, mean int64) int64 {
	d := int64(r.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}
