// Package sched defines the scheduler framework: the Scheduler interface
// implemented by every policy (FCFS, conservative and EASY backfilling,
// Immediate Service, Selective Suspension), the simulation driver that
// wires a policy to the event engine and the cluster, and shared
// machinery — preemptive start orchestration with processor claims, an
// availability profile for backfilling, and an audit log for invariant
// checking.
package sched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

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
	// Suspended. The driver has already put them back into Env.Idle at
	// their FCFS places, so the policy only forgets what it keeps per
	// job (a release list, a protected slice) and reschedules against
	// the surviving machine. The slice is the driver's reused buffer,
	// valid only during the call: a policy that keeps the jobs copies
	// them out.
	OnFailure(p int, requeued []*job.Job)
	// OnRepair is called after processor p returned to service, so the
	// policy can schedule onto the recovered capacity.
	OnRepair(p int)
}

// IgnoreFailures is an embeddable no-op implementation of the failure
// hooks for policies and test schedulers that never run under a fault
// model. The displaced jobs are idle again, but nothing starts them
// until the policy's next event — only use it when Options.Faults is
// unset.
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
	// Probe accumulates per-phase wall-clock timing of the policies'
	// hot regions (queue scans, backfill windows, victim selection).
	// nil — the default — disables profiling at zero cost: span calls
	// on a nil probe are allocation-free no-ops. Timing never
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
	// Resume fast-forwards the run to a watermark a previous run saved,
	// verifying the audit-prefix hash there; nil runs from the start.
	Resume *Snapshot
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
// clock, and the state-changing primitives. It is also the engine's
// sim.Handler (Handle), doing the mechanical bookkeeping before
// delegating the decision to the policy.
type Env struct {
	Cluster  *cluster.Cluster
	Overhead overhead.Model
	Audit    *AuditLog

	engine  *sim.Engine
	sched   Scheduler
	jobs    []*job.Job // all jobs of the run, submission order
	byID    []*job.Job // the same jobs in ascending ID order, for JobByID
	pending []pendingStart
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

	// quiet is the virtual time before which the policy's tick routine
	// cannot act (QuietUntil); every non-tick event and every processor
	// restored to I/O health clears it. tickAlways ignores it, for tests
	// that compare a run against one calling OnTick on every tick.
	quiet      int64
	tickAlways bool

	// tally counts the fault and I/O actions record has seen; prevAct
	// is the action it saw last, and procBuf backs a processor-level
	// action's one-processor set.
	tally   Tally
	prevAct Action
	procBuf [1]int

	// requeued backs the displaced-job list handed to OnFailure, reused
	// from one failure to the next.
	requeued []*job.Job

	// The two lists the policies decide from (Running, Idle), updated
	// where a job changes state. running holds the jobs in state
	// Running; idle is the wait queue, the arrived jobs that hold
	// neither processors nor a claim: Queued or Suspended, and not a
	// pending start. nQueued counts the arrived jobs in state Queued,
	// pending starts included; nSuspended counts Suspending and
	// Suspended. The counts feed observer snapshots and the postmortem.
	running             jobList
	idle                waitQueue
	nQueued, nSuspended int

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
	resume      *Snapshot
	resumeDone  bool
	obsSaved    Observer
}

// pendingStart is a job committed to start on a claimed processor set as
// soon as the suspension writes of its victims complete. The claim is
// the job's own ProcSet, except for a suspended job that migrates, which
// keeps its image's set there until it starts.
type pendingStart struct {
	j     *job.Job
	claim []int
}

// Now returns the current virtual time.
func (e *Env) Now() int64 { return e.engine.Now() }

// Running returns the jobs in state Running, in no particular order.
// The slice is the driver's: a policy reads it and neither writes nor
// keeps it. It stays valid until the policy next calls a primitive that
// starts, resumes, commits, suspends or kills a job (StartFresh,
// Resume, ResumeAnywhere, PreemptAndStart, Suspend, Kill), and at the
// latest until the hook returns; a policy that calls one while walking
// the slice walks a copy.
func (e *Env) Running() []*job.Job { return e.running }

// Idle returns the wait queue: the arrived jobs that hold neither
// processors nor a claim — Queued, or Suspended and not a pending start
// — in FCFS order, ascending (SubmitTime, ID). A job displaced by a
// kill, a failure or a suspension goes back to its submission-order
// place. The slice stays valid as long as Running's does; a policy that
// serves waiting jobs in an order of its own sorts a copy.
func (e *Env) Idle() []*job.Job { return e.idle.jobs }

// Fitting returns the index of the first job of Idle from index i on
// that is at most free processors wide, or len(Idle()). It reads a
// widths array kept in step with the queue, so a backfill scan passes
// over the jobs wider than the free processors, on a loaded machine
// most of the queue, without loading them.
func (e *Env) Fitting(i, free int) int {
	w := e.idle.widths
	for i < len(w) && int(w[i]) > free {
		i++
	}
	return i
}

// waitQueue is the driver's idle list in FCFS order: jobs ascending in
// (SubmitTime, ID), which is a strict order because the IDs of a run are
// unique, so a binary search on that key finds any member. widths[i] is
// jobs[i].Procs.
type waitQueue struct {
	jobs   []*job.Job
	widths []int32
}

// before reports whether a comes before b in FCFS order.
func before(a, b *job.Job) bool {
	return a.SubmitTime < b.SubmitTime || a.SubmitTime == b.SubmitTime && a.ID < b.ID
}

// search returns the index of the first member that j does not come
// after: j's index if it is a member, its place otherwise.
func (q *waitQueue) search(j *job.Job) int {
	lo, hi := 0, len(q.jobs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if before(q.jobs[mid], j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert puts j, which is not a member, at its place. Arrivals come in
// submission order, so an arriving job goes after the tail; a job
// displaced back into the queue is searched for.
func (q *waitQueue) insert(j *job.Job) {
	i := len(q.jobs)
	if i > 0 && before(j, q.jobs[i-1]) {
		i = q.search(j)
	}
	q.jobs = slices.Insert(q.jobs, i, j)
	q.widths = slices.Insert(q.widths, i, int32(j.Procs))
}

// index returns member j's index, or -1 when j is not a member.
func (q *waitQueue) index(j *job.Job) int {
	if i := q.search(j); i < len(q.jobs) && q.jobs[i] == j {
		return i
	}
	return -1
}

// remove takes j out of the queue, which keeps its order; j must be a
// member.
func (q *waitQueue) remove(j *job.Job) {
	i := q.index(j)
	if i < 0 {
		panic(fmt.Sprintf("sched: %v is not idle", j))
	}
	q.delete(i)
}

// delete removes the member at index i.
func (q *waitQueue) delete(i int) {
	q.jobs = slices.Delete(q.jobs, i, i+1)
	q.widths = slices.Delete(q.widths, i, i+1)
}

// jobList is the running list, a set of jobs in no particular order.
// Each member's Slot holds its index, so add and remove are O(1):
// remove moves the last member into the leaver's place. A job's Slot is
// -1 while it is not a member.
type jobList []*job.Job

// add appends j, which is not a member, to l.
func (l *jobList) add(j *job.Job) {
	j.Slot = int32(len(*l))
	*l = append(*l, j)
}

// remove takes member j out of l.
func (l *jobList) remove(j *job.Job) {
	s := *l
	last := len(s) - 1
	s[j.Slot] = s[last]
	s[j.Slot].Slot = j.Slot
	s[last] = nil
	*l = s[:last]
	j.Slot = -1
}

// Probe returns the run's performance probe, nil when profiling is
// disabled. Policies bracket their expensive phases with
// Probe().Begin()/End(...) — both are nil-safe no-ops, so call sites
// need no guards.
func (e *Env) Probe() *perf.Probe { return e.probe }

// QuietUntil tells the driver that the policy's tick routine cannot act
// before virtual time t, so ticks before t skip OnTick; they still
// record their heartbeat. The promise only covers the state the policy
// saw: the driver forgets it at the next non-tick event and whenever a
// processor is restored to I/O health. A policy calls it from OnTick,
// after proving that nothing it would do at a tick before t could start,
// resume or suspend a job, and skips its routine if QuietUntil reports
// true; false means the driver delivers every tick and the routine
// must run.
func (e *Env) QuietUntil(t int64) bool {
	e.quiet = t
	return !e.tickAlways
}

// JobByID returns the job with the given ID, or nil. It binary-searches
// the run's jobs in ID order.
func (e *Env) JobByID(id int) *job.Job {
	if i, ok := slices.BinarySearchFunc(e.byID, id, cmpID); ok {
		return e.byID[i]
	}
	return nil
}

// cmpID orders a job against an ID by the job's ID.
func cmpID(j *job.Job, id int) int { return cmp.Compare(j.ID, id) }

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
	e.idle.remove(j)
	j.ProcSet = e.Cluster.AllocFree(e.Now(), j.ID, j.Procs, j.ProcSet[:0])
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
	e.idle.remove(j)
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
	e.idle.remove(j)
	j.ProcSet = e.Cluster.AllocFree(e.Now(), j.ID, j.Procs, j.ProcSet[:0])
	e.dispatch(j, e.Overhead.ReadTime(j))
	return true
}

// dispatch records the (re)start of j, which has left the idle list
// (a pending start left it at its commit), schedules completion and
// audits. Under transient I/O faults a resume's restart read becomes
// its own ReadDone event so the read can fail and be retried; without
// them the read is folded into the completion time exactly as before.
func (e *Env) dispatch(j *job.Job, readOH int64) {
	wasSuspended := j.State == job.Suspended
	done := j.Dispatch(e.Now(), readOH)
	if e.trans != nil && wasSuspended {
		e.ioAttempts[j.ID] = 1
		e.engine.Schedule(sim.Event{Time: e.Now() + readOH, Kind: sim.ReadDone, Job: j})
	} else {
		e.engine.Schedule(sim.Event{Time: done, Kind: sim.Completion, Job: j})
	}
	if wasSuspended {
		e.nSuspended--
	} else {
		e.nQueued--
	}
	e.running.add(j)
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
//
// The driver keeps its own copy of the claim, so the caller may reuse
// the slice it passed: a queued job's claim is written into its
// ProcSet region at once, a suspended job reclaiming its remembered
// set claims its ProcSet, and only a suspended job that migrates gets a
// copy of its own, because its ProcSet still names its image until it
// starts. PreemptAndStart returns the claim as the driver keeps it,
// valid until the start begins or is aborted.
func (e *Env) PreemptAndStart(j *job.Job, victims []*job.Job, claim []int) []int {
	if len(claim) != j.Procs {
		panic(fmt.Sprintf("sched: claim of %d processors for %v", len(claim), j))
	}
	at := e.idle.index(j)
	if at < 0 {
		panic(fmt.Sprintf("sched: PreemptAndStart on %v, which is not idle", j))
	}
	for _, v := range victims {
		e.beginSuspend(v)
	}
	e.idle.delete(at)
	switch {
	case j.State == job.Queued:
		j.ProcSet = append(j.ProcSet[:0], claim...)
		claim = j.ProcSet
	case slices.Equal(claim, j.ProcSet):
		claim = j.ProcSet
	default:
		claim = slices.Clone(claim)
	}
	e.Cluster.Claim(j.ID, claim)
	e.pending = append(e.pending, pendingStart{j: j, claim: claim})
	e.activatePending()
	return claim
}

// Kill aborts running job j, releasing its processors immediately and
// discarding all of its work (speculative backfilling's failed gamble).
// The job goes back to its place in the wait queue.
func (e *Env) Kill(j *job.Job) {
	if j.State != job.Running {
		panic(fmt.Sprintf("sched: Kill on %v", j))
	}
	set := j.ProcSet
	j.Kill(e.Now())
	e.Cluster.Release(e.Now(), j.ID, set)
	j.ProcSet = set[:0]
	e.running.remove(j)
	e.nQueued++
	e.idle.insert(j)
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
	e.running.remove(v)
	e.nSuspended++
	e.record(jobEvent(ActSuspendBegin, v, v.ProcSet))
	if e.trans != nil {
		e.ioAttempts[v.ID] = 1
	}
	e.engine.Schedule(sim.Event{Time: e.Now() + e.Overhead.WriteTime(v), Kind: sim.SuspendDone, Job: v})
}

// activatePending starts every pending job whose claimed set is fully
// released, in commit order. Each leaves the pending list before its
// start is recorded, so the record's census sees the list as it is.
func (e *Env) activatePending() {
	for i := 0; i < len(e.pending); {
		p := e.pending[i]
		if !e.Cluster.SetFree(p.j.ID, p.claim) {
			i++
			continue
		}
		e.pending = slices.Delete(e.pending, i, i+1)
		e.Cluster.AllocSet(e.Now(), p.j.ID, p.claim)
		readOH := int64(0)
		if p.j.State == job.Suspended {
			readOH = e.Overhead.ReadTime(p.j)
		}
		p.j.ProcSet = append(p.j.ProcSet[:0], p.claim...)
		e.dispatch(p.j, readOH)
	}
}

// Handle implements sim.Handler: it routes each engine event to the
// driver step of its kind. Every event but a tick can change what the
// policy's tick routine would do, so it ends any QuietUntil promise.
func (e *Env) Handle(ev sim.Event) {
	if ev.Kind != sim.Tick {
		e.quiet = 0
	}
	switch ev.Kind {
	case sim.Arrival:
		e.arrive(ev.Job)
	case sim.Completion:
		e.complete(ev.Job)
	case sim.SuspendDone:
		e.suspendDone(ev.Job)
	case sim.ReadDone:
		e.readDone(ev.Job)
	case sim.IORetry:
		e.ioRetry(ev.Job)
	case sim.ProcFail:
		e.procFail(ev.Proc)
	case sim.ProcRepair:
		e.procRepair(ev.Proc)
	case sim.Tick:
		e.tick()
	}
}

// arrive queues a submitted job and hands it to the policy.
func (e *Env) arrive(j *job.Job) {
	e.sweepIOHealth()
	e.lastArrival = e.Now()
	e.busyAtLastArrival = e.Cluster.BusyIntegral(e.Now())
	e.nQueued++
	e.idle.insert(j)
	e.record(jobEvent(ActArrive, j, nil))
	e.sched.OnArrival(j)
}

// complete finishes j: finish bookkeeping, processor release and
// pending activation happen before the policy reacts. The engine counts
// the job finished once this delivery returns.
func (e *Env) complete(j *job.Job) {
	e.sweepIOHealth()
	j.Complete(e.Now())
	e.Cluster.Release(e.Now(), j.ID, j.ProcSet)
	e.running.remove(j)
	e.record(jobEvent(ActFinish, j, j.ProcSet))
	e.activatePending()
	e.sched.OnCompletion(j)
}

// suspendDone ends j's suspension write. Under transient I/O faults
// the image write can fail at this point: the job stays Suspending on
// its processors and the write is retried after backoff, or — on the
// final permitted attempt — the job is killed back to the queue (its
// partial image is worthless, like a crashed image write).
func (e *Env) suspendDone(j *job.Job) {
	e.sweepIOHealth()
	if e.trans != nil {
		if failing := e.trans.FailingWrite(j.ProcSet); len(failing) > 0 {
			e.ioFailed(j, failing)
			return
		}
	}
	j.SuspendDone()
	e.Cluster.Release(e.Now(), j.ID, j.ProcSet)
	e.idle.insert(j)
	e.record(jobEvent(ActSuspendDone, j, j.ProcSet))
	e.activatePending()
	e.sched.OnSuspendDone(j)
}

// readDone ends j's restart-image read (transient-fault runs only —
// otherwise reads fold into completions). On success the compute
// burst's completion is scheduled; on transient failure the read is
// retried after backoff, the wait charged to the job; on the final
// failed attempt the job is killed back to the queue.
func (e *Env) readDone(j *job.Job) {
	if failing := e.trans.FailingRead(j.ProcSet); len(failing) > 0 {
		e.ioFailed(j, failing)
		return
	}
	e.engine.Schedule(sim.Event{Time: e.Now() + j.Remaining(), Kind: sim.Completion, Job: j})
}

// ioFailed handles j's image write (j Suspending) or restart-image read
// (j Running) failing transiently on the processors failing: the
// operation is retried after backoff, or — on the final permitted
// attempt — the job is killed back to the queue.
func (e *Env) ioFailed(j *job.Job, failing []int) {
	e.recordIOFailures(failing)
	attempt := e.ioAttempts[j.ID]
	if attempt >= e.trans.Config().Attempts() {
		e.record(jobEvent(ActIOExhausted, j, j.ProcSet))
		e.failIOTerminal(j, failing[0])
		return
	}
	e.record(jobEvent(ActIORetry, j, j.ProcSet))
	backoff := e.trans.Config().Backoff(attempt)
	if j.State == job.Running {
		// The backoff wait plus the repeated read occupy the
		// processors without compute progress.
		j.ExtendRead(backoff + e.Overhead.ReadTime(j))
	}
	e.ioAttempts[j.ID] = attempt + 1
	e.engine.Schedule(sim.Event{Time: e.Now() + backoff, Kind: sim.IORetry, Job: j})
}

// ioRetry starts j's backed-off I/O attempt. The operation restarts
// from scratch — a suspending job re-runs its full image write, a
// restarting job its full image read.
func (e *Env) ioRetry(j *job.Job) {
	switch j.State {
	case job.Suspending:
		e.engine.Schedule(sim.Event{Time: e.Now() + e.Overhead.WriteTime(j), Kind: sim.SuspendDone, Job: j})
	case job.Running:
		e.engine.Schedule(sim.Event{Time: e.Now() + e.Overhead.ReadTime(j), Kind: sim.ReadDone, Job: j})
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
	e.failKill(j)
	e.activatePending()
	e.requeued = append(e.requeued[:0], j)
	e.sched.OnFailure(p, e.requeued)
}

// failKill kills j, Running or Suspending, back to the queue: its
// processors are released and the work it loses is recorded with the
// kill.
func (e *Env) failKill(j *job.Job) {
	wasSuspending := j.State == job.Suspending
	set := j.ProcSet
	lost := j.Fail(e.Now())
	e.Cluster.Release(e.Now(), j.ID, set)
	j.ProcSet = set[:0]
	if wasSuspending {
		e.nSuspended--
	} else {
		e.running.remove(j)
	}
	e.nQueued++
	e.idle.insert(j)
	ev := jobEvent(ActKill, j, set)
	ev.LostWork = lost
	e.record(ev)
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
		e.quiet = 0 // a healthy processor can offer a victim again
		e.record(e.procEvent(ActIORestored, p))
	}
}

// SetIOHealthy reports whether every processor in set is currently
// clear of the transient-I/O degradation threshold. Preemptive
// policies consult it during victim selection so they stop suspending
// (or resuming onto) jobs whose image I/O would likely fail — under
// rising failure rates the system degrades smoothly toward pure
// backfilling. Always true when transient faults are disabled.
func (e *Env) SetIOHealthy(set []int) bool {
	return e.health == nil || e.health.Healthy(set)
}

// IOHealthFlips returns how many times a processor has crossed the
// transient-I/O degradation threshold or been restored, so far in the
// run: SetIOHealthy can answer differently for some set only after it
// moved. It reads the tally, so it costs nothing to keep.
func (e *Env) IOHealthFlips() int {
	return e.tally.IODegradations + e.tally.IORestores
}

// procFail takes processor p down. The driver performs the mechanical
// fallout in a fixed order before the policy reacts — (1) the cluster
// marks p down, (2) pending preemptive starts claiming p are aborted,
// (3) the job owning p (Running or Suspending) is killed back to the
// queue with its work discarded, (4) suspended jobs whose remembered
// image sat on p are invalidated back to the queue (the stranded-image
// cost of local restart), (5) the repair or, under permanent failures,
// the unfinishable check is scheduled, and finally the policy's
// OnFailure hook receives every displaced job.
func (e *Env) procFail(p int) {
	now := e.Now()
	e.Cluster.Fail(now, p)
	e.record(e.procEvent(ActProcFail, p))

	requeued := e.requeued[:0]
	// Abort pending starts whose claimed set includes p. The claim can
	// never be satisfied while p is down (SetFree refuses down
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
		if ps.j.State == job.Queued {
			ps.j.ProcSet = ps.j.ProcSet[:0]
		}
		e.idle.insert(ps.j)
		requeued = append(requeued, ps.j)
	}
	e.pending = kept

	// Kill the job computing (or writing its suspension image) on p.
	if id := e.Cluster.Owner(p); id != -1 {
		v := e.JobByID(id)
		e.failKill(v)
		requeued = append(requeued, v)
	}

	// Invalidate suspended jobs whose memory image sat on p: local
	// restart needs the exact remembered set, and the image on p's disk
	// is gone, so the job restarts from scratch. The scan stops as soon
	// as no job is left suspending or suspended, so under a policy that
	// never suspends a failure does not walk the run's jobs at all.
	for _, j := range e.jobs {
		if e.nSuspended == 0 {
			break
		}
		if j.State != job.Suspended || !containsProc(j.ProcSet, p) {
			continue
		}
		set := j.ProcSet
		lost := j.Fail(now)
		j.ProcSet = set[:0]
		e.nSuspended--
		e.nQueued++ // it stays idle, or a pending start
		ev := jobEvent(ActImageLost, j, set)
		ev.LostWork = lost
		e.record(ev)
		requeued = append(requeued, j)
	}
	requeued = dedupeJobs(requeued)
	e.requeued = requeued

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
		e.engine.Schedule(sim.Event{Time: now + e.faults.RepairDelay(p), Kind: sim.ProcRepair, Proc: p})
	}
	// The kills above released processors; pending starts not touching
	// p may have become ready.
	e.activatePending()
	e.sched.OnFailure(p, requeued)
}

// procRepair returns processor p to service and schedules its next
// failure.
func (e *Env) procRepair(p int) {
	now := e.Now()
	e.Cluster.Repair(now, p)
	e.record(e.procEvent(ActProcRepair, p))
	e.engine.Schedule(sim.Event{Time: now + e.faults.FailDelay(p), Kind: sim.ProcFail, Proc: p})
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

// tick runs the policy's periodic routine unless the policy declared it
// quiet until a later time. The tick heartbeat is emitted either way,
// and before the policy reacts, so time-series sinks sample the state
// the preemption routine is about to act on.
func (e *Env) tick() {
	e.sweepIOHealth()
	e.record(Event{Entry: Entry{Action: ActTick, JobID: -1}})
	if e.Now() < e.quiet && !e.tickAlways {
		return
	}
	e.sched.OnTick()
}

// OrderByXFactor sorts jobs by descending xfactor at time now, breaking
// ties by earlier submission then lower ID for determinism. It reuses
// ord's scratch, and computes each job's xfactor once, not once per
// comparison.
func OrderByXFactor(ord *job.Order, jobs []*job.Job, now int64) {
	ord.Sort(jobs, func(j *job.Job) (float64, int64) { return -j.XFactor(now), j.SubmitTime })
}
