// Package sched defines the scheduler framework: the Scheduler interface
// implemented by every policy (FCFS, conservative and EASY backfilling,
// Immediate Service, Selective Suspension), the simulation driver that
// wires a policy to the event engine and the cluster, and shared
// machinery — preemptive start orchestration with processor claims, an
// availability profile for backfilling, and an audit log for invariant
// checking.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"pjs/internal/cluster"
	"pjs/internal/fault"
	"pjs/internal/health"
	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/perf"
	"pjs/internal/sim"
	"pjs/internal/workload"
)

// Scheduler is a parallel-job scheduling policy. The driver delivers
// events after performing state bookkeeping (job transitions, processor
// release, pending-start activation); the policy only decides which jobs
// to start, suspend or resume, using the Env primitives.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Init is called once before the simulation starts.
	Init(env *Env)
	// OnArrival is called when j is submitted (j is Queued).
	OnArrival(j *job.Job)
	// OnCompletion is called after j finished and released its
	// processors.
	OnCompletion(j *job.Job)
	// OnSuspendDone is called after j's suspension write completed and
	// its processors were released (minus claims).
	OnSuspendDone(j *job.Job)
	// OnTick is called every TickInterval seconds of virtual time.
	OnTick()
	// TickInterval returns the periodic-invocation interval in seconds;
	// 0 disables ticks. The paper's preemption routine runs every
	// minute.
	TickInterval() int64
	// OnFailure is called after processor p failed and the driver
	// finished the mechanical fallout: the job running (or writing its
	// suspension image) on p was killed back to the queue, suspended
	// jobs whose remembered image sat on p were invalidated back to the
	// queue, and pending preemptive starts claiming p were aborted.
	// requeued lists every job the failure displaced, in deterministic
	// order; each is Queued (restart from scratch) except aborted
	// pending resumes whose image survives elsewhere, which stay
	// Suspended. The policy must take these jobs back into its own
	// bookkeeping — for a policy that tracks no per-job state, treating
	// them like fresh arrivals is the correct default.
	OnFailure(p int, requeued []*job.Job)
	// OnRepair is called after processor p returned to service, so the
	// policy can schedule onto the recovered capacity.
	OnRepair(p int)
}

// IgnoreFailures is an embeddable no-op implementation of the failure
// hooks for policies and test schedulers that never run under a fault
// model. Embedding it under fault injection silently drops displaced
// jobs — only use it when Options.Faults is unset.
type IgnoreFailures struct{}

// OnFailure implements Scheduler by ignoring the failure.
func (IgnoreFailures) OnFailure(int, []*job.Job) {}

// OnRepair implements Scheduler by ignoring the repair.
func (IgnoreFailures) OnRepair(int) {}

// Options configure a simulation run.
type Options struct {
	// Overhead is the suspension/restart cost model; nil means free
	// (overhead.None), the assumption of Sections IV and VI.
	Overhead overhead.Model
	// Audit enables the action log consumed by the invariant checker.
	Audit bool
	// MaxSteps aborts runaway simulations (0 = no limit).
	MaxSteps int64
	// ContiguousAlloc switches fresh allocations to best-fit contiguous
	// placement (cluster.BestFitContiguous) — an ablation of placement
	// locality under local restart.
	ContiguousAlloc bool
	// Observer receives engine events (package obs provides counter,
	// time-series and trace sinks plus a fan-out). nil disables
	// observation at zero cost: every emission site is nil-guarded and
	// allocates nothing.
	Observer Observer
	// Probe accumulates per-phase wall-clock timing of the scheduler hot
	// path (event dispatch, queue scans, backfill windows, victim
	// selection). nil — the default — disables profiling at zero cost:
	// span calls on a nil probe are allocation-free no-ops. Timing never
	// enters the audit log, the watermark hash or the observer stream,
	// so an attached probe cannot perturb a run's deterministic outputs.
	Probe *perf.Probe
	// Faults configures deterministic processor fault injection. The
	// zero value (the default) injects nothing and leaves the run
	// byte-identical to a build without the fault subsystem.
	Faults fault.Config
	// Transient configures deterministic transient suspend/restart I/O
	// fault injection with bounded retry/backoff and per-processor
	// health tracking. The zero value (the default) injects nothing and
	// leaves the run byte-identical to a build without the subsystem.
	Transient fault.TransientConfig
	// Checkpoint enables periodic watermark checkpointing (see
	// lifecycle.go); nil disables it at zero cost.
	Checkpoint *CheckpointConfig
	// Resume fast-forwards the run to a previously saved watermark,
	// verifying the audit-prefix hash there; nil runs from the start.
	Resume *ResumeSpec
}

// Result is the outcome of one simulation run.
type Result struct {
	// Trace names the workload that was run.
	Trace string
	// Scheduler names the policy.
	Scheduler string
	// Jobs are the completed jobs with full dynamic state (finish
	// times, suspension counts, ...). They are the clones the run
	// mutated, not the caller's trace.
	Jobs []*job.Job
	// Utilization is busy processor-time over machine capacity between
	// the first submission and the last completion. Schemes that defer
	// long jobs (preemptive ones under overload) pay a long low-
	// parallelism drain tail here.
	Utilization float64
	// UtilizationLoaded is busy processor-time over capacity between
	// the first and the LAST submission — how busy the scheduler keeps
	// the machine while demand exists, unaffected by the drain tail.
	// This matches the shape of the paper's Figures 35/38.
	UtilizationLoaded float64
	// Start and End delimit the simulated span (first submit, last
	// completion).
	Start, End int64
	// Suspensions is the total number of preemptions performed.
	Suspensions int
	// Tally counts the run's fault and transient-I/O actions.
	Tally
	// Events is the number of engine events the run processed — the
	// denominator for throughput metrics (events/sec, ns/event).
	Events int64
	// Audit is the action log if Options.Audit was set.
	Audit *AuditLog
}

// Makespan returns the simulated span in seconds.
func (r *Result) Makespan() int64 { return r.End - r.Start }

// ErrUnfinishable reports a run aborted because, under permanent
// processor failures, an unfinished job is wider than the surviving
// machine and could never be dispatched.
var ErrUnfinishable = errors.New("sched: job wider than the surviving machine")

// Run simulates trace t under policy s and returns the result. The
// caller's trace is not mutated; jobs are cloned per run. Run panics on
// the conditions RunChecked reports as errors — invalid trace, step
// exhaustion, deadlock, unfinishable jobs; library callers that need to
// degrade gracefully should call RunChecked instead.
func Run(t *workload.Trace, s Scheduler, opt Options) *Result {
	res, err := RunChecked(t, s, opt)
	if err != nil {
		panic(err)
	}
	return res
}

// RunChecked simulates trace t under policy s, returning an error —
// never panicking — for the run-level failure modes: a trace that fails
// validation, Options.MaxSteps exhaustion (errors.Is sim.ErrMaxSteps),
// a scheduler that strands jobs (errors.Is sim.ErrDeadlock), jobs
// wider than the surviving machine under permanent fault injection
// (errors.Is ErrUnfinishable), and a panic inside the policy or engine
// (errors.As *PanicError, carrying a deterministic postmortem).
// RunContext adds cancellation and checkpoint/resume on top.
func RunChecked(t *workload.Trace, s Scheduler, opt Options) (*Result, error) {
	return RunContext(context.Background(), t, s, opt)
}

// Env is the execution environment handed to a policy: the cluster, the
// clock, and the state-changing primitives. It also implements
// sim.Handler, doing the mechanical bookkeeping before delegating the
// decision to the policy.
type Env struct {
	Cluster  *cluster.Cluster
	Overhead overhead.Model
	Audit    *AuditLog

	engine  *sim.Engine
	sched   Scheduler
	byID    map[int]*job.Job
	jobs    []*job.Job // all jobs of the run, submission order
	pending []*pendingStart
	obs     Observer
	probe   *perf.Probe              // nil without profiling
	faults  *fault.Injector          // nil without fault injection
	trans   *fault.TransientInjector // nil without transient I/O faults
	health  *health.Tracker          // nil without transient I/O faults

	// ioAttempts tracks, per job ID, the attempt count of the job's
	// in-flight suspend-write or restart-read operation. Entries are
	// only written while the operation is outstanding and are
	// re-initialized at the start of the next one; the map is never
	// iterated, so it cannot leak ordering into the run.
	ioAttempts map[int]int

	// tally counts the fault and I/O actions record has seen; prevAct
	// is the action it saw last, and procBuf backs a processor-level
	// action's one-processor set.
	tally   Tally
	prevAct Action
	procBuf [1]int

	// Job-state census for observer snapshots, maintained on every
	// transition (a handful of integer ops — cheap enough to keep
	// unconditionally). nSuspended counts Suspending and Suspended.
	nQueued, nRunning, nSuspended int

	// Snapshot of the busy-time integral at the most recent arrival,
	// for the loaded-period utilization metric.
	lastArrival       int64
	busyAtLastArrival int64

	// Run-lifecycle state (lifecycle.go): the streaming audit-prefix
	// hash that watermarks deterministic progress, and resume
	// fast-forward tracking. obsSaved holds the muted observer until
	// the watermark is reached.
	hashOn      bool
	hash        uint64
	hashEntries int64
	resume      *ResumeSpec
	resumeDone  bool
	obsSaved    Observer
}

// pendingStart is a job committed to start on a claimed processor set as
// soon as the suspension writes of its victims complete.
type pendingStart struct {
	j     *job.Job
	claim []int
}

// Now returns the current virtual time.
func (e *Env) Now() int64 { return e.engine.Now() }

// Probe returns the run's performance probe, nil when profiling is
// disabled. Policies bracket their expensive phases with
// Probe().Begin()/End(...) — both are nil-safe no-ops, so call sites
// need no guards.
func (e *Env) Probe() *perf.Probe { return e.probe }

// JobByID returns the job with the given ID, or nil.
func (e *Env) JobByID(id int) *job.Job { return e.byID[id] }

// IsPending reports whether j is committed to a claimed pending start.
func (e *Env) IsPending(j *job.Job) bool {
	for _, p := range e.pending {
		if p.j == j {
			return true
		}
	}
	return false
}

// PendingCount returns the number of jobs waiting on claimed sets.
func (e *Env) PendingCount() int { return len(e.pending) }

// StartFresh starts queued job j on any free processors if enough are
// available right now; it reports whether the job was started. A job is
// Queued only when it holds no suspended image — including after a kill
// or a processor-failure requeue — so a fresh placement is always legal.
func (e *Env) StartFresh(j *job.Job) bool {
	if j.State != job.Queued {
		panic(fmt.Sprintf("sched: StartFresh on %v", j))
	}
	if e.Cluster.FreeUnclaimed() < j.Procs {
		return false
	}
	procs := e.Cluster.AllocFree(e.Now(), j.ID, j.Procs)
	j.ProcSet = procs
	e.dispatch(j, 0)
	return true
}

// Resume restarts suspended job j on its remembered processor set if the
// whole set is currently free; it reports whether the job was resumed.
// The restart read overhead is charged.
func (e *Env) Resume(j *job.Job) bool {
	if j.State != job.Suspended {
		panic(fmt.Sprintf("sched: Resume on %v", j))
	}
	if !e.Cluster.SetFree(j.ID, j.ProcSet) {
		return false
	}
	e.Cluster.AllocSet(e.Now(), j.ID, j.ProcSet)
	e.dispatch(j, e.Overhead.ReadTime(j))
	return true
}

// ResumeAnywhere restarts suspended job j on any free processors —
// the *migratable* preemption model of Parsons & Sevcik, used by the
// migration ablation to quantify the cost of the paper's local-restart
// constraint. It reports whether the job was resumed.
func (e *Env) ResumeAnywhere(j *job.Job) bool {
	if j.State != job.Suspended {
		panic(fmt.Sprintf("sched: ResumeAnywhere on %v", j))
	}
	if e.Cluster.FreeUnclaimed() < j.Procs {
		return false
	}
	j.ProcSet = e.Cluster.AllocFree(e.Now(), j.ID, j.Procs)
	e.dispatch(j, e.Overhead.ReadTime(j))
	return true
}

// dispatch records the (re)start, schedules completion and audits.
// Under transient I/O faults a resume's restart read becomes its own
// ReadDone event so the read can fail and be retried; without them the
// read is folded into the completion time exactly as before.
func (e *Env) dispatch(j *job.Job, readOH int64) {
	wasSuspended := j.State == job.Suspended
	done := j.Dispatch(e.Now(), readOH)
	if e.trans != nil && wasSuspended {
		e.ioAttempts[j.ID] = 1
		e.engine.ScheduleReadDone(j, e.Now()+readOH)
	} else {
		e.engine.ScheduleCompletion(j, done)
	}
	if wasSuspended {
		e.nSuspended--
	} else {
		e.nQueued--
	}
	e.nRunning++
	// A dispatch out of Suspended is a resume; out of Queued it is a
	// (re)start — even when the job was suspended in an earlier
	// incarnation that a kill or processor failure discarded.
	act := ActStart
	if wasSuspended {
		act = ActResume
	}
	e.record(jobEvent(act, j, j.ProcSet))
}

// PreemptAndStart suspends the victim jobs and commits j to start on
// claim — a set of exactly j.Procs processors, each either free (and
// unclaimed, or claimed by j… never the case here) or owned by one of
// the victims. The victims begin their suspension writes immediately; j
// starts when the last claimed processor is released. The caller is
// responsible for having validated the preemption policy conditions.
func (e *Env) PreemptAndStart(j *job.Job, victims []*job.Job, claim []int) {
	if len(claim) != j.Procs {
		panic(fmt.Sprintf("sched: claim of %d processors for %v", len(claim), j))
	}
	if j.State != job.Queued && j.State != job.Suspended {
		panic(fmt.Sprintf("sched: PreemptAndStart on %v", j))
	}
	for _, v := range victims {
		e.beginSuspend(v)
	}
	e.Cluster.Claim(j.ID, claim)
	e.pending = append(e.pending, &pendingStart{j: j, claim: claim})
	e.activatePending()
}

// Kill aborts running job j, releasing its processors immediately and
// discarding all of its work (speculative backfilling's failed gamble).
// The caller is responsible for requeueing the job.
func (e *Env) Kill(j *job.Job) {
	if j.State != job.Running {
		panic(fmt.Sprintf("sched: Kill on %v", j))
	}
	set := j.ProcSet
	j.Kill(e.Now())
	e.Cluster.Release(e.Now(), j.ID, set)
	e.nRunning--
	e.nQueued++
	e.record(jobEvent(ActKill, j, set))
	e.activatePending()
}

// Suspend begins suspension of running job j without committing its
// processors to any successor — used by policies that drain the machine
// wholesale (gang scheduling's row switch) rather than preempting for a
// specific beneficiary.
func (e *Env) Suspend(j *job.Job) { e.beginSuspend(j) }

// beginSuspend moves a running victim into the Suspending state and
// schedules the end of its memory-image write.
func (e *Env) beginSuspend(v *job.Job) {
	if v.State != job.Running {
		panic(fmt.Sprintf("sched: suspend of %v", v))
	}
	v.Preempt(e.Now())
	e.nRunning--
	e.nSuspended++
	e.record(jobEvent(ActSuspendBegin, v, v.ProcSet))
	if e.trans != nil {
		e.ioAttempts[v.ID] = 1
	}
	e.engine.ScheduleSuspendDone(v, e.Now()+e.Overhead.WriteTime(v))
}

// activatePending starts every pending job whose claimed set is fully
// released.
func (e *Env) activatePending() {
	kept := e.pending[:0]
	for _, p := range e.pending {
		if e.Cluster.ClaimReady(p.claim) {
			e.Cluster.AllocSet(e.Now(), p.j.ID, p.claim)
			readOH := int64(0)
			if p.j.State == job.Suspended {
				readOH = e.Overhead.ReadTime(p.j)
			}
			p.j.ProcSet = p.claim
			e.dispatch(p.j, readOH)
		} else {
			kept = append(kept, p)
		}
	}
	e.pending = kept
}

// HandleArrival implements sim.Handler.
func (e *Env) HandleArrival(j *job.Job) {
	e.sweepIOHealth()
	e.lastArrival = e.Now()
	e.busyAtLastArrival = e.Cluster.BusyIntegral(e.Now())
	e.nQueued++
	e.record(jobEvent(ActArrive, j, nil))
	e.sched.OnArrival(j)
}

// HandleCompletion implements sim.Handler: finish bookkeeping, processor
// release and pending activation happen before the policy reacts.
func (e *Env) HandleCompletion(j *job.Job) {
	e.sweepIOHealth()
	j.Complete(e.Now())
	e.Cluster.Release(e.Now(), j.ID, j.ProcSet)
	e.nRunning--
	e.record(jobEvent(ActFinish, j, j.ProcSet))
	e.engine.JobFinished()
	e.activatePending()
	e.sched.OnCompletion(j)
}

// HandleSuspendDone implements sim.Handler. Under transient I/O faults
// the image write can fail at this point: the job stays Suspending on
// its processors and the write is retried after backoff, or — on the
// final permitted attempt — the job is killed back to the queue (its
// partial image is worthless, like a crashed image write).
func (e *Env) HandleSuspendDone(j *job.Job) {
	e.sweepIOHealth()
	if e.trans != nil {
		if failing := e.trans.FailingWrite(j.ProcSet); len(failing) > 0 {
			e.recordIOFailures(failing)
			if attempt := e.ioAttempts[j.ID]; attempt < e.trans.Config().Attempts() {
				e.record(jobEvent(ActIORetry, j, j.ProcSet))
				e.ioAttempts[j.ID] = attempt + 1
				e.engine.ScheduleIORetry(j, e.Now()+e.trans.Config().Backoff(attempt))
			} else {
				e.record(jobEvent(ActIOExhausted, j, j.ProcSet))
				e.failIOTerminal(j, failing[0])
			}
			return
		}
	}
	j.SuspendDone()
	e.Cluster.Release(e.Now(), j.ID, j.ProcSet)
	e.record(jobEvent(ActSuspendDone, j, j.ProcSet))
	e.activatePending()
	e.sched.OnSuspendDone(j)
}

// HandleReadDone implements sim.Handler: a restart-image read finished
// (transient-fault runs only — otherwise reads fold into completions).
// On success the compute burst's completion is scheduled; on transient
// failure the read is retried after backoff, the wait charged to the
// job; on the final failed attempt the job is killed back to the queue.
func (e *Env) HandleReadDone(j *job.Job) {
	if failing := e.trans.FailingRead(j.ProcSet); len(failing) > 0 {
		e.recordIOFailures(failing)
		if attempt := e.ioAttempts[j.ID]; attempt < e.trans.Config().Attempts() {
			e.record(jobEvent(ActIORetry, j, j.ProcSet))
			backoff := e.trans.Config().Backoff(attempt)
			// The backoff wait plus the repeated read occupy the
			// processors without compute progress.
			j.ExtendRead(backoff + e.Overhead.ReadTime(j))
			e.ioAttempts[j.ID] = attempt + 1
			e.engine.ScheduleIORetry(j, e.Now()+backoff)
		} else {
			e.record(jobEvent(ActIOExhausted, j, j.ProcSet))
			e.failIOTerminal(j, failing[0])
		}
		return
	}
	e.engine.ScheduleCompletion(j, e.Now()+j.Remaining())
}

// HandleIORetry implements sim.Handler: a backed-off I/O attempt is
// due. The operation restarts from scratch — a suspending job re-runs
// its full image write, a restarting job its full image read.
func (e *Env) HandleIORetry(j *job.Job) {
	switch j.State {
	case job.Suspending:
		e.engine.ScheduleSuspendDone(j, e.Now()+e.Overhead.WriteTime(j))
	case job.Running:
		e.engine.ScheduleReadDone(j, e.Now()+e.Overhead.ReadTime(j))
	default:
		// Unreachable: the engine drops IORetry events for any other
		// state as stale.
		panic(fmt.Sprintf("sched: io-retry for %v", j))
	}
}

// failIOTerminal kills job j after its I/O operation failed on the
// final permitted attempt: processors are released, all progress is
// discarded (Resubmits++) and the job returns to the queue via the
// same displaced-job path a processor failure uses, with p as the
// summary processor handed to the policy's OnFailure hook.
func (e *Env) failIOTerminal(j *job.Job, p int) {
	wasSuspending := j.State == job.Suspending
	set := j.ProcSet
	lost := j.Fail(e.Now())
	e.Cluster.Release(e.Now(), j.ID, set)
	if wasSuspending {
		e.nSuspended--
	} else {
		e.nRunning--
	}
	e.nQueued++
	ev := jobEvent(ActKill, j, set)
	ev.LostWork = lost
	e.record(ev)
	e.activatePending()
	e.sched.OnFailure(p, []*job.Job{j})
}

// recordIOFailures charges one transient I/O failure per affected
// processor to the health tracker, announcing threshold crossings.
func (e *Env) recordIOFailures(failing []int) {
	now := e.Now()
	for _, p := range failing {
		if e.health.RecordFailure(now, p) {
			e.record(e.procEvent(ActIODegraded, p))
		}
	}
}

// sweepIOHealth clears degradation for processors whose failure window
// passed. It runs at the driver entry points that precede policy
// decisions (arrival, completion, suspend-done, tick), so a policy
// never sees a processor as degraded after its window cleared.
func (e *Env) sweepIOHealth() {
	if e.health == nil {
		return
	}
	for _, p := range e.health.Sweep(e.Now()) {
		e.record(e.procEvent(ActIORestored, p))
	}
}

// IOHealthActive reports whether per-processor I/O health tracking is
// running (i.e. transient I/O faults are enabled). Policies use it to
// skip the health filter entirely on the common no-fault path.
func (e *Env) IOHealthActive() bool { return e.health != nil }

// SetIOHealthy reports whether every processor in set is currently
// clear of the transient-I/O degradation threshold. Preemptive
// policies consult it during victim selection so they stop suspending
// (or resuming onto) jobs whose image I/O would likely fail — under
// rising failure rates the system degrades smoothly toward pure
// backfilling. Always true when transient faults are disabled.
func (e *Env) SetIOHealthy(set []int) bool {
	return e.health == nil || e.health.Healthy(set)
}

// HandleProcFail implements sim.Handler: processor p fails. The driver
// performs the mechanical fallout in a fixed order before the policy
// reacts — (1) the cluster marks p down, (2) pending preemptive starts
// claiming p are aborted, (3) the job owning p (Running or Suspending)
// is killed back to the queue with its work discarded, (4) suspended
// jobs whose remembered image sat on p are invalidated back to the
// queue (the stranded-image cost of local restart), (5) the repair or,
// under permanent failures, the unfinishable check is scheduled, and
// finally the policy's OnFailure hook receives every displaced job.
func (e *Env) HandleProcFail(p int) {
	now := e.Now()
	e.Cluster.Fail(now, p)
	e.record(e.procEvent(ActProcFail, p))

	var requeued []*job.Job
	// Abort pending starts whose claimed set includes p. The claim can
	// never be satisfied while p is down (ClaimReady refuses down
	// processors), and after a repair the machine state has moved on —
	// the policy re-decides. A pending job that was Suspended keeps its
	// image (invalidated below only if the image itself sat on p).
	kept := e.pending[:0]
	for _, ps := range e.pending {
		if !containsProc(ps.claim, p) {
			kept = append(kept, ps)
			continue
		}
		e.Cluster.Unclaim(ps.j.ID, ps.claim)
		requeued = append(requeued, ps.j)
	}
	e.pending = kept

	// Kill the job computing (or writing its suspension image) on p.
	if id := e.Cluster.Owner(p); id != -1 {
		v := e.byID[id]
		set := v.ProcSet
		wasSuspending := v.State == job.Suspending
		lost := v.Fail(now)
		e.Cluster.Release(now, v.ID, set)
		if wasSuspending {
			e.nSuspended--
		} else {
			e.nRunning--
		}
		e.nQueued++
		ev := jobEvent(ActKill, v, set)
		ev.LostWork = lost
		e.record(ev)
		requeued = append(requeued, v)
	}

	// Invalidate suspended jobs whose memory image sat on p: local
	// restart needs the exact remembered set, and the image on p's disk
	// is gone, so the job restarts from scratch.
	for _, j := range e.jobs {
		if j.State != job.Suspended || !containsProc(j.ProcSet, p) {
			continue
		}
		set := j.ProcSet
		lost := j.Fail(now)
		j.ProcSet = nil
		e.nSuspended--
		e.nQueued++
		ev := jobEvent(ActImageLost, j, set)
		ev.LostWork = lost
		e.record(ev)
		requeued = append(requeued, j)
	}
	requeued = dedupeJobs(requeued)

	if e.faults.Permanent() {
		// The machine never recovers: a job wider than the survivors can
		// never be dispatched, so degrade with an error instead of
		// spinning until MaxSteps.
		up := e.Cluster.UpCount()
		for _, j := range e.jobs {
			if j.State != job.Finished && j.Procs > up {
				e.engine.Abort(fmt.Errorf("%w: %v needs %d of %d surviving processors",
					ErrUnfinishable, j, j.Procs, up))
				break
			}
		}
	} else {
		e.engine.ScheduleProcRepair(p, now+e.faults.RepairDelay(p))
	}
	// The kills above released processors; pending starts not touching
	// p may have become ready.
	e.activatePending()
	e.sched.OnFailure(p, requeued)
}

// HandleProcRepair implements sim.Handler: processor p returns to
// service and its next failure is scheduled.
func (e *Env) HandleProcRepair(p int) {
	now := e.Now()
	e.Cluster.Repair(now, p)
	e.record(e.procEvent(ActProcRepair, p))
	e.engine.ScheduleProcFail(p, now+e.faults.FailDelay(p))
	e.sched.OnRepair(p)
}

// containsProc reports whether set includes p.
func containsProc(set []int, p int) bool {
	for _, q := range set {
		if q == p {
			return true
		}
	}
	return false
}

// dedupeJobs removes duplicate jobs preserving first-seen order (a
// suspended job can be displaced both as an aborted pending start and
// as a stranded image in the same failure).
func dedupeJobs(jobs []*job.Job) []*job.Job {
	out := jobs[:0]
	for _, j := range jobs {
		dup := false
		for _, k := range out {
			if k == j {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, j)
		}
	}
	return out
}

// HandleTick implements sim.Handler. The tick heartbeat is emitted
// before the policy reacts, so time-series sinks sample the state the
// preemption routine is about to act on.
func (e *Env) HandleTick() {
	e.sweepIOHealth()
	e.record(Event{Entry: Entry{Action: ActTick, JobID: -1}})
	e.sched.OnTick()
}

// SortByXFactor sorts jobs by descending xfactor at time now, breaking
// ties by earlier submission then lower ID for determinism.
func SortByXFactor(jobs []*job.Job, now int64) {
	sort.SliceStable(jobs, func(i, k int) bool {
		xi, xk := jobs[i].XFactor(now), jobs[k].XFactor(now)
		if xi != xk {
			return xi > xk
		}
		if jobs[i].SubmitTime != jobs[k].SubmitTime {
			return jobs[i].SubmitTime < jobs[k].SubmitTime
		}
		return jobs[i].ID < jobs[k].ID
	})
}

// Contains reports whether queue holds j — used by failure hooks to
// requeue displaced jobs without duplicating ones already tracked.
func Contains(queue []*job.Job, j *job.Job) bool {
	for _, q := range queue {
		if q == j {
			return true
		}
	}
	return false
}

// Remove deletes j from queue, preserving order, and returns the
// shortened slice.
func Remove(queue []*job.Job, j *job.Job) []*job.Job {
	for i, q := range queue {
		if q == j {
			return append(queue[:i], queue[i+1:]...)
		}
	}
	return queue
}
