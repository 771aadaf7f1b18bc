// Run-lifecycle layer: context cancellation, checkpoint watermarks,
// resume fast-forward and panic postmortems for simulation runs.
//
// A run is a pure function of (trace, policy, options), so a checkpoint
// never serializes engine or policy state. It records only a watermark
// of deterministic progress: the engine event count plus a streaming
// FNV-1a hash over the audit-action prefix the run emitted up to that
// point. Resume rebuilds the same inputs, replays from the start with
// user observers muted, verifies the hash at the watermark — any
// divergence (different binary, edited trace, corrupted checkpoint)
// is ErrCheckpointMismatch, never a silent wrong answer — and then
// continues byte-identically to the uninterrupted run.

package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"pjs/internal/cluster"
	"pjs/internal/fault"
	"pjs/internal/health"
	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sim"
	"pjs/internal/workload"
)

// Snapshot is a watermark of deterministic run progress, handed to
// CheckpointConfig.Save. Events is the number of engine events
// processed; AuditHash/AuditEntries fingerprint the audit-action
// prefix emitted so far; Now is the virtual clock, for diagnostics.
type Snapshot struct {
	Events       int64
	Now          int64
	AuditHash    uint64
	AuditEntries int64
}

// CheckpointConfig enables periodic checkpointing: Save is called with
// the current watermark every Every engine events, and once more on
// context cancellation (the final snapshot of an interrupted run). A
// Save error stops the run and is returned from RunContext — a
// checkpoint that cannot be written must not be silently skipped.
type CheckpointConfig struct {
	Every int64
	Save  func(Snapshot) error
}

// ResumeSpec asks RunContext to fast-forward to a previous run's
// watermark before un-muting observers and continuing. The fields come
// from a Snapshot the previous run saved.
type ResumeSpec struct {
	Events       int64
	AuditHash    uint64
	AuditEntries int64
}

// Lifecycle failure modes, matchable with errors.Is.
var (
	// ErrCheckpointMismatch: the replay diverged from the checkpoint's
	// watermark — the checkpoint is stale, corrupted past its checksum,
	// or belongs to different inputs. The run is not trusted.
	ErrCheckpointMismatch = errors.New("sched: run does not match checkpoint watermark")
	// ErrInterrupted: the run was canceled and a final checkpoint was
	// saved; resume from it to continue.
	ErrInterrupted = errors.New("sched: run interrupted, checkpoint saved")
)

// InterruptedError reports a canceled run whose final state was
// checkpointed. It wraps both ErrInterrupted and the cancellation
// cause (which itself wraps sim.ErrCanceled and the context error).
type InterruptedError struct {
	Snapshot Snapshot
	Cause    error
}

// Error renders the interrupt with its resume watermark.
func (e *InterruptedError) Error() string {
	return fmt.Sprintf("sched: interrupted after %d events at t=%d, checkpoint saved: %v",
		e.Snapshot.Events, e.Snapshot.Now, e.Cause)
}

// Unwrap exposes ErrInterrupted and the cancellation cause.
func (e *InterruptedError) Unwrap() []error { return []error{ErrInterrupted, e.Cause} }

// PanicError is a panic inside the policy, driver or engine, converted
// to an error by RunContext. Postmortem is a deterministic dump of the
// run state at the point of death — the same crash reproduces the same
// postmortem — and Stack is the goroutine stack.
type PanicError struct {
	Value      any
	Postmortem string
	Stack      []byte
}

// Error renders the panic with its postmortem.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: panic during run: %v\npostmortem:\n%s%s", e.Value, e.Postmortem, e.Stack)
}

// FNV-1a (64-bit) parameters for the audit-prefix hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mix64 folds the eight bytes of v into the running FNV-1a hash.
//
//lint:allocfree always, pure bit arithmetic
func mix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// mixEntry advances the audit-prefix hash by one audit entry. The mix
// covers exactly what AuditLog canonical rendering is keyed on — time,
// action, job identity and processor set — so equal hashes over equal
// entry counts imply byte-identical audit prefixes for the same
// workload.
//
//lint:allocfree hashing disabled
func (e *Env) mixEntry(ent *Entry) {
	if !e.hashOn {
		return
	}
	h := mix64(e.hash, uint64(ent.Time))
	h = mix64(h, uint64(ent.Action))
	h = mix64(h, uint64(int64(ent.JobID)))
	h = mix64(h, uint64(len(ent.Procs)))
	for _, p := range ent.Procs {
		h = mix64(h, uint64(p))
	}
	e.hash = h
	e.hashEntries++
}

// snapshot captures the current watermark.
func (e *Env) snapshot() Snapshot {
	return Snapshot{
		Events:       e.engine.Steps(),
		Now:          e.engine.Now(),
		AuditHash:    e.hash,
		AuditEntries: e.hashEntries,
	}
}

// lifecycleHook is the engine step hook driving resume fast-forward
// and periodic checkpointing. It never mutates simulation state.
func (e *Env) lifecycleHook(ck *CheckpointConfig) func(int64) error {
	return func(steps int64) error {
		if e.resume != nil && !e.resumeDone {
			if steps < e.resume.Events {
				return nil // still fast-forwarding; no checkpoints yet
			}
			if steps != e.resume.Events || e.hash != e.resume.AuditHash || e.hashEntries != e.resume.AuditEntries {
				return fmt.Errorf("%w: at event %d the replay has audit hash %016x over %d entries, the checkpoint says event %d hash %016x over %d entries",
					ErrCheckpointMismatch, steps, e.hash, e.hashEntries,
					e.resume.Events, e.resume.AuditHash, e.resume.AuditEntries)
			}
			e.obs = e.obsSaved
			e.obsSaved = nil
			e.resumeDone = true
			return nil
		}
		if ck != nil && ck.Every > 0 && steps%ck.Every == 0 {
			if err := ck.Save(e.snapshot()); err != nil {
				return fmt.Errorf("checkpoint save at event %d: %w", steps, err)
			}
		}
		return nil
	}
}

// postmortem renders a deterministic dump of the run state for crash
// reports: virtual time, event count, job census, machine state, the
// watermark hash, and the tail of the audit log when one was kept. It
// contains no wall times or addresses, so the same crash of the same
// deterministic run renders the same postmortem.
func (e *Env) postmortem() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  t=%d events=%d\n", e.engine.Now(), e.engine.Steps())
	fmt.Fprintf(&b, "  jobs: %d queued, %d running, %d suspended/suspending, %d pending starts\n",
		e.nQueued, e.nRunning, e.nSuspended, len(e.pending))
	fmt.Fprintf(&b, "  cluster: %d/%d processors up, %d free+unclaimed, %d busy\n",
		e.Cluster.UpCount(), e.Cluster.Size(), e.Cluster.FreeUnclaimed(), e.Cluster.Busy())
	if e.hashOn {
		fmt.Fprintf(&b, "  audit hash %016x over %d entries\n", e.hash, e.hashEntries)
	}
	if e.Audit != nil && len(e.Audit.Entries) > 0 {
		const tail = 8
		start := len(e.Audit.Entries) - tail
		if start < 0 {
			start = 0
		}
		fmt.Fprintf(&b, "  last %d audit entries:\n", len(e.Audit.Entries)-start)
		for _, ent := range e.Audit.Entries[start:] {
			fmt.Fprintf(&b, "    t=%d %s job=%d set=%v\n", ent.Time, ent.Action, ent.JobID, ent.Procs)
		}
	}
	return b.String()
}

// runEngine drives the simulation with panic containment: a panic
// anywhere in the policy, driver or engine becomes a *PanicError
// carrying a postmortem of the deterministic state at death.
func runEngine(env *Env, s Scheduler) (end int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Postmortem: env.postmortem(), Stack: debug.Stack()}
		}
	}()
	s.Init(env)
	return env.engine.Run()
}

// RunContext simulates trace t under policy s with run-lifecycle
// controls on top of RunChecked's contract:
//
//   - ctx cancels the run at an event boundary; the error wraps
//     sim.ErrCanceled and the context error, so callers distinguish an
//     operator interrupt from a watchdog deadline.
//   - Options.Checkpoint saves a watermark every Every events and once
//     more on cancellation; a canceled-and-saved run returns
//     *InterruptedError (errors.Is ErrInterrupted).
//   - Options.Resume fast-forwards a fresh run to a saved watermark
//     with user observers muted, verifies the audit-prefix hash there
//     — any divergence is ErrCheckpointMismatch, a corrupt or stale
//     checkpoint is never silently resumed — and continues
//     byte-identically to the uninterrupted run. The audit log (if
//     Options.Audit) covers the whole run including the fast-forward.
//   - A panic in the policy, driver or engine is returned as a
//     *PanicError with a deterministic postmortem instead of
//     unwinding through the caller.
func RunContext(ctx context.Context, t *workload.Trace, s Scheduler, opt Options) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid trace: %w", err)
	}
	oh := opt.Overhead
	if oh == nil {
		oh = overhead.None{}
	}
	env := &Env{
		Cluster:  cluster.New(t.Procs),
		Overhead: oh,
		sched:    s,
		byID:     make(map[int]*job.Job),
		obs:      opt.Observer,
		probe:    opt.Probe,
	}
	if opt.ContiguousAlloc {
		env.Cluster.SetAllocPolicy(cluster.BestFitContiguous)
	}
	if opt.Audit {
		env.Audit = &AuditLog{Procs: t.Procs}
	}
	if opt.Checkpoint != nil || opt.Resume != nil {
		env.hashOn = true
		env.hash = fnvOffset64
	}
	if opt.Resume != nil {
		env.resume = opt.Resume
		if opt.Resume.Events > 0 {
			// Mute user observers during fast-forward: sinks attached to
			// a resumed run see only the continuation, never a replay of
			// history they may already have recorded.
			env.obsSaved = env.obs
			env.obs = nil
		} else {
			env.resumeDone = true
		}
	}
	env.engine = sim.New(env, s.TickInterval())
	env.engine.SetContext(ctx)
	env.engine.SetProbe(opt.Probe)
	if opt.MaxSteps > 0 {
		env.engine.SetMaxSteps(opt.MaxSteps)
	}
	if env.resume != nil || (opt.Checkpoint != nil && opt.Checkpoint.Every > 0) {
		env.engine.SetStepHook(env.lifecycleHook(opt.Checkpoint))
	}
	jobs := t.CloneJobs()
	env.jobs = jobs
	for _, j := range jobs {
		env.engine.AddJob(j)
		env.byID[j.ID] = j
	}
	if opt.Transient.Enabled() {
		env.trans = fault.NewTransientInjector(opt.Transient)
		env.health = health.New(t.Procs, opt.Transient.Window(), opt.Transient.Threshold())
		env.ioAttempts = make(map[int]int)
	}
	if opt.Faults.Enabled() {
		env.faults = fault.NewInjector(opt.Faults)
		// Every processor's first failure is scheduled up front; repairs
		// and subsequent failures chain one event at a time, so at most
		// one fault event per processor is ever pending.
		for p := 0; p < t.Procs; p++ {
			env.engine.ScheduleProcFail(p, env.faults.FailDelay(p))
		}
	}
	end, err := runEngine(env, s)
	if err != nil {
		if opt.Checkpoint != nil && errors.Is(err, sim.ErrCanceled) {
			snap := env.snapshot()
			if serr := opt.Checkpoint.Save(snap); serr != nil {
				return nil, fmt.Errorf("sched: %s on %s: final checkpoint failed: %w (interrupt: %v)",
					s.Name(), t.Name, serr, err)
			}
			return nil, &InterruptedError{Snapshot: snap, Cause: err}
		}
		return nil, fmt.Errorf("sched: %s on %s: %w", s.Name(), t.Name, err)
	}
	if env.resume != nil && !env.resumeDone {
		return nil, fmt.Errorf("%w: run finished after %d events at t=%d, short of the checkpoint watermark of %d events — the checkpoint does not belong to this run",
			ErrCheckpointMismatch, env.engine.Steps(), end, env.resume.Events)
	}

	res := &Result{
		Trace:     t.Name,
		Scheduler: s.Name(),
		Jobs:      jobs,
		Start:     jobs[0].SubmitTime,
		End:       end,
		Tally:     env.tally,
		Events:    env.engine.Steps(),
		Audit:     env.Audit,
	}
	for _, j := range jobs {
		if j.State != job.Finished {
			panic(fmt.Sprintf("sched: %s left %v unfinished", s.Name(), j))
		}
		res.Suspensions += j.Suspensions
	}
	res.Utilization = env.Cluster.Utilization(res.Start, res.End)
	if env.lastArrival > res.Start {
		res.UtilizationLoaded = float64(env.busyAtLastArrival) /
			float64(int64(t.Procs)*(env.lastArrival-res.Start))
	}
	return res, nil
}
