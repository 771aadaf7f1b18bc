// Package job defines the rigid parallel job model used throughout the
// simulator: static attributes read from a workload trace, dynamic
// run-state accounting (dispatch / preempt / resume), and the suspension
// priorities ("expansion factors") that drive the preemptive scheduling
// policies of Kettimuthu et al., "Selective Preemption Strategies for
// Parallel Job Scheduling" (ICPP 2002).
package job

import "fmt"

// State is the lifecycle state of a job inside the simulator. It is a
// byte so that Job.Slot packs beside it.
type State uint8

const (
	// Queued jobs have arrived but hold no processors. A job returns to
	// Queued (with Suspensions > 0) after a suspension completes.
	Queued State = iota
	// Running jobs hold their processor set and make compute progress.
	Running
	// Suspending jobs still hold their processors while their memory
	// image is written to disk (the suspension overhead of Section V-A).
	Suspending
	// Suspended jobs hold no processors and wait to be restarted on
	// exactly the processors recorded in ProcSet (local preemption).
	Suspended
	// Finished jobs have completed their full run time.
	Finished
)

// String returns the conventional lower-case name of the state.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Suspending:
		return "suspending"
	case Suspended:
		return "suspended"
	case Finished:
		return "finished"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Job is a rigid parallel job. The number of processors is fixed for the
// lifetime of the job (the paper's model; malleable schemes are
// inapplicable at supercomputer centers, Section II-C).
//
// Times are in seconds since the start of the trace. Static fields are
// set by the workload layer; dynamic fields are owned by the scheduler
// driver and must only be mutated through the methods below so that the
// run-time accounting stays consistent.
type Job struct {
	// Static trace attributes.
	ID         int
	SubmitTime int64 // arrival at the scheduler
	RunTime    int64 // actual execution time, unknown to the scheduler
	Estimate   int64 // user-estimated run time (wall-clock limit)
	Procs      int   // number of processors requested (rigid)
	MemPerProc int64 // resident memory per processor, bytes (overhead model)

	// Dynamic scheduling state.
	State        State
	Slot         int32 // the driver's: index in its running list, -1 when not running
	FirstStart   int64 // time of first dispatch, -1 until started
	FinishTime   int64 // completion time, -1 until finished
	LastDispatch int64 // time of most recent dispatch
	Ran          int64 // accumulated compute seconds (excludes overhead)
	PendingRead  int64 // restart-overhead seconds still owed at dispatch
	Suspensions  int   // number of times the job has been suspended
	Kills        int   // number of speculative executions aborted
	Resubmits    int   // number of processor-failure restarts from scratch
	Epoch        int   // invalidates stale completion/suspend events
	// ProcSet holds the processors the job holds, claims as a queued
	// pending start, or held before its suspension; it is empty while
	// the job has no set. A simulation run gives each job a region of exactly
	// Procs ints in one slab as its capacity, and every set of the job
	// is written there, so a start allocates nothing: the contents are
	// those of the job's current incarnation only.
	ProcSet []int
}

// New returns a queued job with the given static attributes and dynamic
// state initialized. Estimate is clamped up to RunTime: the simulator
// models wall-clock limits as never killing a job, matching the paper's
// treatment where estimates are lower-bounded by the true run time.
func New(id int, submit, run, estimate int64, procs int) *Job {
	j := new(Job)
	j.Init(id, submit, run, estimate, procs)
	return j
}

// Init sets *j, in place, to the job New returns: for callers that
// keep jobs in slabs of their own.
func (j *Job) Init(id int, submit, run, estimate int64, procs int) {
	*j = Job{} // then field by field: a composite literal would be built aside and copied
	j.ID, j.SubmitTime, j.RunTime, j.Estimate, j.Procs = id, submit, run, max(estimate, run), procs
	j.FirstStart, j.FinishTime, j.Slot = -1, -1, -1
}

// Remaining returns the compute seconds the job still needs.
func (j *Job) Remaining() int64 { return j.RunTime - j.Ran }

// EstimatedRemaining returns the remaining run time as the scheduler
// perceives it, based on the user estimate rather than the true run time.
// It is never negative even when the job has already exceeded its
// estimate (badly estimated jobs never do here; see New).
func (j *Job) EstimatedRemaining() int64 {
	r := j.Estimate - j.Ran
	if r < 0 {
		r = 0
	}
	return r
}

// ProjectedEnd returns the completion time a scheduler projects for a
// running job from its user estimate: the last dispatch, plus the
// restart read still owed, plus the estimate.
func (j *Job) ProjectedEnd() int64 { return j.LastDispatch + j.PendingRead + j.Estimate }

// Wait returns the total time the job has spent without making compute
// progress up to time now: queued, suspended, or paying suspend/restart
// overhead. While the job is running, Wait stays constant; while it
// waits, Wait grows — the property the Section IV-A analysis relies on.
func (j *Job) Wait(now int64) int64 {
	if j.State == Finished {
		now = j.FinishTime
	}
	w := now - j.SubmitTime - j.ranAt(now)
	if w < 0 {
		w = 0
	}
	return w
}

// ranAt returns accumulated compute seconds as of time now, including
// progress inside the current running burst.
func (j *Job) ranAt(now int64) int64 {
	ran := j.Ran
	if j.State == Running {
		inBurst := now - j.LastDispatch - j.PendingRead
		if inBurst > 0 {
			ran += inBurst
		}
		if ran > j.RunTime {
			ran = j.RunTime
		}
	}
	return ran
}

// StillReading reports whether the job is running but has not yet
// finished its restart read at time now (it is occupying processors
// without making compute progress).
func (j *Job) StillReading(now int64) bool {
	return j.State == Running && now < j.LastDispatch+j.PendingRead
}

// XFactor returns the job's expansion factor (Eq. 2 of the paper):
//
//	xfactor = (wait time + estimated run time) / estimated run time
//
// It is the suspension priority of the SS and TSS schemes: it rises
// rapidly for short jobs and gradually for long jobs, and it grows
// without bound while a job waits, which guarantees freedom from
// starvation (Section IV-B).
func (j *Job) XFactor(now int64) float64 {
	est := j.Estimate
	if est < 1 {
		est = 1
	}
	return float64(j.Wait(now)+est) / float64(est)
}

// InstantaneousXFactor is the suspension priority of the Immediate
// Service scheme of Chiang and Vernon (Section II-C):
//
//	ixf = (wait time + total accumulated run time) / total accumulated run time
//
// Unlike XFactor it does not use the run-time estimate. The denominator
// is clamped to one second so that a job that has not yet run has a very
// large (but finite) priority.
func (j *Job) InstantaneousXFactor(now int64) float64 {
	ran := j.ranAt(now)
	if ran < 1 {
		ran = 1
	}
	return float64(j.Wait(now)+ran) / float64(ran)
}

// Dispatch records that the job starts (or restarts) computing at time
// now after paying readOverhead seconds of restart I/O. It returns the
// absolute completion time assuming the job is not preempted again.
func (j *Job) Dispatch(now, readOverhead int64) (completion int64) {
	if j.State != Queued && j.State != Suspended {
		panic(fmt.Sprintf("job %d: Dispatch in state %v", j.ID, j.State))
	}
	if j.FirstStart < 0 {
		j.FirstStart = now
	}
	j.State = Running
	j.LastDispatch = now
	j.PendingRead = readOverhead
	j.Epoch++
	return now + readOverhead + j.Remaining()
}

// ExtendRead adds delay seconds to the restart-read overhead of a
// running job whose image read failed transiently and is being retried:
// the backoff wait plus the repeated read both occupy processors
// without compute progress, so they must count as waiting (PendingRead
// pushes the start of the compute burst, keeping ranAt and Wait exact).
func (j *Job) ExtendRead(delay int64) {
	if j.State != Running {
		panic(fmt.Sprintf("job %d: ExtendRead in state %v", j.ID, j.State))
	}
	if delay < 0 {
		panic(fmt.Sprintf("job %d: ExtendRead with negative delay %d", j.ID, delay))
	}
	j.PendingRead += delay
}

// Preempt records that the job stops computing at time now and begins
// writing its memory image to disk (state Suspending). Compute progress
// accrued in the current burst is banked into Ran.
func (j *Job) Preempt(now int64) {
	if j.State != Running {
		panic(fmt.Sprintf("job %d: Preempt in state %v", j.ID, j.State))
	}
	j.Ran = j.ranAt(now)
	j.State = Suspending
	j.Suspensions++
	j.Epoch++
}

// SuspendDone records that the memory image write finished: the job no
// longer holds processors but remembers ProcSet for local restart.
func (j *Job) SuspendDone() {
	if j.State != Suspending {
		panic(fmt.Sprintf("job %d: SuspendDone in state %v", j.ID, j.State))
	}
	j.State = Suspended
}

// Kill aborts a running job, discarding all accumulated work: the job
// returns to the queue as if it had never run (speculative backfilling
// kills jobs that outlive their gambled hole — batch systems cannot
// checkpoint arbitrary jobs, so an eviction without suspension support
// loses everything).
func (j *Job) Kill(now int64) {
	if j.State != Running {
		panic(fmt.Sprintf("job %d: Kill in state %v", j.ID, j.State))
	}
	j.Ran = 0
	j.PendingRead = 0
	j.State = Queued
	j.Kills++
	j.Epoch++
}

// Fail aborts the job after a processor failure and returns the compute
// seconds that were lost. Valid from Running (the processor died under
// the job), Suspending (it died during the image write) and Suspended
// (it held the job's memory image — the stranded-image cost of local
// restart): in every case the job returns to the queue with all
// progress discarded, because batch jobs cannot be checkpointed and a
// partial or stranded image is worthless. The caller releases
// processors and truncates ProcSet to its region as appropriate.
func (j *Job) Fail(now int64) (lost int64) {
	switch j.State {
	case Running, Suspending, Suspended:
	default:
		panic(fmt.Sprintf("job %d: Fail in state %v", j.ID, j.State))
	}
	lost = j.ranAt(now)
	j.Ran = 0
	j.PendingRead = 0
	j.State = Queued
	j.Resubmits++
	j.Epoch++
	return lost
}

// Complete records successful completion at time now.
func (j *Job) Complete(now int64) {
	if j.State != Running {
		panic(fmt.Sprintf("job %d: Complete in state %v", j.ID, j.State))
	}
	j.Ran = j.RunTime
	j.State = Finished
	j.FinishTime = now
	j.Epoch++
}

// Turnaround returns the job's turnaround (response) time. It panics if
// the job has not finished.
func (j *Job) Turnaround() int64 {
	if j.State != Finished {
		panic(fmt.Sprintf("job %d: Turnaround before finish", j.ID))
	}
	return j.FinishTime - j.SubmitTime
}

// SlowdownThreshold is the bounded-slowdown clamp of Eq. 1: run times
// below 10 seconds are treated as 10 seconds "to limit the influence of
// very short jobs on the metric".
const SlowdownThreshold = 10

// BoundedSlowdown returns the paper's Eq. 1 for a finished job:
//
//	max( (wait + run) / max(run, 10), 1 )
//
// where wait+run is the turnaround time (suspended time counts as wait).
func (j *Job) BoundedSlowdown() float64 {
	run := j.RunTime
	if run < SlowdownThreshold {
		run = SlowdownThreshold
	}
	sd := float64(j.Turnaround()) / float64(run)
	if sd < 1 {
		sd = 1
	}
	return sd
}

// WellEstimated reports whether the user estimate is no more than twice
// the actual run time — the estimate-quality split of Section V.
func (j *Job) WellEstimated() bool { return j.Estimate <= 2*j.RunTime }

func (j *Job) String() string {
	return fmt.Sprintf("job %d [procs=%d run=%ds est=%ds submit=%d %v]",
		j.ID, j.Procs, j.RunTime, j.Estimate, j.SubmitTime, j.State)
}
