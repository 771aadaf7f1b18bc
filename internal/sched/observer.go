package sched

import "pjs/internal/job"

// Event is one engine-level observation, published to the Observer hook
// at exactly the points where the audit log records actions (plus
// ActTick heartbeats, which the audit log omits). The snapshot fields
// describe the machine state *after* the action took effect, so a sink
// that records the last event of each virtual instant sees the settled
// end-of-instant state.
//
// Events are passed by value and never retained by the engine; the
// Procs slice aliases the job's live processor set, so a sink that
// keeps it beyond the Observe call must copy it.
type Event struct {
	// Entry is the action as the audit log records it: Time, Action,
	// JobID (-1 for processor-level actions and ticks), the static job
	// attributes, and Procs — the job's processor set at the action
	// (shared, do not retain); nil for arrivals and ticks. For
	// processor-level actions (ActProcFail, ActProcRepair,
	// ActIODegraded, ActIORestored) it holds the one affected processor.
	Entry
	// Job is the subject of the action; nil for ActTick and the
	// processor-level actions.
	Job *job.Job
	// LostWork is the compute seconds discarded by this action: set for
	// failure-induced ActKill and for ActImageLost, zero otherwise
	// (including speculative-backfilling kills, which only ever discard
	// work the gamble knowingly risked).
	LostWork int64
	// Busy is the number of processors owned by jobs after the action
	// (Suspending jobs still hold theirs).
	Busy int
	// Up is the number of in-service processors after the action — the
	// machine size minus failed processors. Always Procs-count without
	// fault injection.
	Up int
	// Queued counts jobs that have arrived and hold no processors and
	// no suspended image (state Queued).
	Queued int
	// Running counts jobs in state Running.
	Running int
	// Suspended counts preempted jobs: state Suspending (image still
	// being written) plus state Suspended.
	Suspended int
	// MaxQueuedXFactor is the largest expansion factor (Eq. 2) at Time
	// over the jobs counted by Queued, or 0 when Queued is 0 — the
	// pressure signal the SS/TSS preemption routine acts on.
	MaxQueuedXFactor float64
}

// Observer receives engine events. Set one via Options.Observer; nil
// (the default) costs nothing — the driver's record funnel skips the
// census and the call, and its nil path performs no allocations
// (asserted by TestNilObserverEmitZeroAllocs and
// BenchmarkRunObserverNil).
//
// Determinism contract: an Observer must be a pure sink in virtual
// time. It must not mutate jobs or scheduler state, read the wall
// clock, or influence the run in any way; two identical runs must then
// drive an identical event stream (the instrumented double-run
// regression in determinism_test.go asserts byte-identical sink
// output). Package obs provides the standard sinks — counters, a
// time-series sampler and a Perfetto trace exporter — plus a fan-out
// to compose them.
type Observer interface {
	Observe(ev Event)
}
