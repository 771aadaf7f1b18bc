// Package sim implements the discrete-event simulation core: a
// deterministic event queue with a virtual clock, epoch-invalidated job
// events, and periodic scheduler ticks (the paper's one-minute preemption
// routine). The engine knows nothing about scheduling policy; a Handler
// (the scheduler driver) receives the events.
//
// Events come from three sources, merged by time: a min-heap of the
// events the run schedules (Completion through ProcRepair), the jobs'
// arrivals in submit order, and the tick clock. At equal times the heap
// goes first, then arrivals, then the tick, which is the Kind order, so
// the delivered sequence is that of one queue ordered by (Time, Kind,
// insertion order).
package sim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"pjs/internal/job"
)

// Kind discriminates event types. The numeric order doubles as the
// processing priority for events with equal timestamps: completions free
// processors before arrivals and ticks observe them, and processor
// fail/repair transitions land after job releases at the same instant
// but before new arrivals see the machine.
type Kind int

const (
	// Completion fires when a running job finishes its compute.
	Completion Kind = iota
	// SuspendDone fires when a suspending job's memory image write
	// finishes and its processors are released.
	SuspendDone
	// ReadDone fires when a restarting job's memory image read finishes
	// (only scheduled when transient I/O faults are enabled; otherwise
	// restart reads are folded into the completion time).
	ReadDone
	// IORetry fires when a backed-off suspend-write or restart-read
	// attempt is due to be retried.
	IORetry
	// ProcFail fires when a processor fails (fault injection).
	ProcFail
	// ProcRepair fires when a failed processor returns to service.
	ProcRepair
	// Arrival fires when a job is submitted.
	Arrival
	// Tick fires periodically to run the scheduler's preemption routine.
	Tick
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case Completion:
		return "completion"
	case SuspendDone:
		return "suspend-done"
	case ReadDone:
		return "read-done"
	case IORetry:
		return "io-retry"
	case ProcFail:
		return "proc-fail"
	case ProcRepair:
		return "proc-repair"
	case Arrival:
		return "arrival"
	case Tick:
		return "tick"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Run failure modes, returned (wrapped) by Run. Internal invariant
// violations — scheduling into the past, time moving backwards — still
// panic: they are simulator bugs, not run conditions.
var (
	// ErrDeadlock: the event queue drained with unfinished jobs left.
	ErrDeadlock = errors.New("sim: deadlock, no pending events but unfinished jobs remain")
	// ErrMaxSteps: the SetMaxSteps safety valve tripped (livelock?).
	ErrMaxSteps = errors.New("sim: step limit exceeded")
	// ErrCanceled: the SetContext context was done, and the run stopped
	// at an event boundary. The engine state is intact and consistent —
	// the run-lifecycle layer takes a final checkpoint from it.
	ErrCanceled = errors.New("sim: run canceled")
)

// Event is a scheduled occurrence. Job events carry the job's Epoch at
// scheduling time; if the job's epoch has moved on (it was preempted or
// resumed), the event is stale and silently dropped. ProcFail/ProcRepair
// events carry the processor index instead of a job.
type Event struct {
	Time  int64
	Kind  Kind
	Job   *job.Job
	Epoch int
	Proc  int   // processor index for ProcFail/ProcRepair
	seq   int64 // insertion order, final tie-break for determinism
}

// Handler receives simulation events in virtual-time order: one call
// per delivered event. Each job added with AddJob arrives once, at its
// SubmitTime. Job events whose job has moved on (see stale) never reach
// Handle, and a Tick arrives every tick interval while the simulation
// has unfinished jobs, if the interval is non-zero.
type Handler interface {
	Handle(ev Event)
}

// Engine owns the virtual clock and the three event sources.
type Engine struct {
	now         int64
	seq         int64
	heap        eventHeap  // scheduled events, never an Arrival or a Tick
	arrivals    []*job.Job // added jobs; sorted by SubmitTime when Run starts
	nextArrival int        // index of the next job to arrive
	// nextTick is the time of the next Tick while tickInterval > 0.
	nextTick     int64
	handler      Handler
	tickInterval int64
	totalJobs    int
	finishedJobs int
	steps        int64
	maxSteps     int64
	abortErr     error
	ctx          context.Context
	stepHook     func(steps int64) error
}

// New returns an engine delivering events to h. tickInterval of 0
// disables ticks.
func New(h Handler, tickInterval int64) *Engine {
	return &Engine{handler: h, tickInterval: tickInterval}
}

// Now returns the current virtual time.
//
//lint:allocfree always, field read
func (e *Engine) Now() int64 { return e.now }

// Steps returns the number of events processed so far.
func (e *Engine) Steps() int64 { return e.steps }

// SetMaxSteps installs a safety valve: Run returns ErrMaxSteps after n
// events. Zero (the default) means no limit. Used to catch livelocks.
func (e *Engine) SetMaxSteps(n int64) { e.maxSteps = n }

// ctxCheckMask throttles the cancellation poll: ctx.Err() is consulted
// every ctxCheckMask+1 events (and before the very first one), keeping
// the hot loop free of per-event synchronization while still stopping
// within a bounded number of events of cancellation.
const ctxCheckMask = 255

// SetContext installs a cancellation context: Run stops with a wrapped
// ErrCanceled at an event boundary shortly after ctx is done. The
// context error itself is also in the wrap chain, so callers can
// distinguish an operator interrupt (context.Canceled) from a watchdog
// deadline (context.DeadlineExceeded). A nil ctx — the default —
// never cancels. Cancellation affects only *when* the run stops, never
// what it computes: every event processed before the stop is identical
// to the uninterrupted run's.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// SetStepHook installs fn, invoked after every processed event with
// the cumulative event count; a non-nil return stops Run with that
// error. The run-lifecycle layer (internal/sched) uses the hook for
// checkpoint watermarks and resume fast-forward — the hook must not
// mutate simulation state, or determinism is lost.
func (e *Engine) SetStepHook(fn func(steps int64) error) { e.stepHook = fn }

// Abort requests that Run stop with the given error after the current
// handler returns. Handlers call it when they detect an unrecoverable
// run condition (e.g. a job wider than the surviving machine under
// permanent failures). A nil err is ignored; the first abort wins.
func (e *Engine) Abort(err error) {
	if err != nil && e.abortErr == nil {
		e.abortErr = err
	}
}

// AddJob schedules the arrival of each of jobs at its SubmitTime, which
// must not change before Run delivers it. All jobs must be added before
// Run; arrivals never enter the heap (Schedule refuses them). Jobs with
// equal submit times arrive in AddJob order. The first call keeps the
// slice it is given as the arrival list instead of copying it, so a
// caller passing a slice with ... must not change it until Run returns;
// Run sorts it in place, stably by SubmitTime, when it is out of submit
// order.
func (e *Engine) AddJob(jobs ...*job.Job) {
	e.totalJobs += len(jobs)
	if e.arrivals == nil {
		e.arrivals = slices.Clip(jobs) // a later call appends to a copy
		return
	}
	e.arrivals = append(e.arrivals, jobs...)
}

// Schedule queues ev for delivery at ev.Time. A job event is bound to
// the job's current epoch, so preempting, killing or failing the job
// before ev.Time makes it stale. Ticks belong to the engine, and
// arrivals to AddJob, which also counts the job: Schedule refuses both.
func (e *Engine) Schedule(ev Event) {
	if ev.Time < e.now {
		panic(fmt.Sprintf("sim: %v for %v (proc %d) scheduled in the past (%d < %d)",
			ev.Kind, ev.Job, ev.Proc, ev.Time, e.now))
	}
	if ev.Kind == Tick {
		panic("sim: ticks are scheduled by the engine")
	}
	if ev.Kind == Arrival {
		panic("sim: arrivals are added with AddJob")
	}
	if ev.Job != nil {
		ev.Epoch = ev.Job.Epoch
	}
	ev.seq = e.seq
	e.seq++
	e.heap.push(ev)
}

// stale reports whether a job-bound event no longer reflects the job's
// state and must be dropped.
func stale(ev *Event) bool {
	switch ev.Kind {
	case Completion:
		return ev.Job.Epoch != ev.Epoch || ev.Job.State != job.Running
	case SuspendDone:
		return ev.Job.Epoch != ev.Epoch || ev.Job.State != job.Suspending
	case ReadDone:
		return ev.Job.Epoch != ev.Epoch || ev.Job.State != job.Running
	case IORetry:
		return ev.Job.Epoch != ev.Epoch ||
			(ev.Job.State != job.Running && ev.Job.State != job.Suspending)
	case Arrival, Tick, ProcFail, ProcRepair:
		// Not job-bound: arrivals are externally scheduled, ticks and
		// processor events carry no job, so none can go stale.
		return false
	}
	return false
}

// Run processes events until all jobs have finished and returns the
// finish time of the last job (the makespan end). A job finishes when
// its Completion is delivered. Run fails with a wrapped ErrDeadlock
// when no event, arrival or tick is left with jobs unfinished, a
// wrapped ErrMaxSteps when the safety valve trips, a wrapped
// ErrCanceled when the SetContext context is done, the step hook's
// error, or the handler's Abort error; on error the returned time is
// the time reached so far.
func (e *Engine) Run() (int64, error) {
	byTime := func(a, b *job.Job) int { return cmp.Compare(a.SubmitTime, b.SubmitTime) }
	if !slices.IsSortedFunc(e.arrivals, byTime) {
		// Stable, so equal submit times keep AddJob order.
		slices.SortStableFunc(e.arrivals, byTime)
	}
	if e.tickInterval > 0 && (e.heap.len() > 0 || len(e.arrivals) > 0) {
		first := int64(math.MaxInt64)
		if e.heap.len() > 0 {
			first = e.heap.a[0].Time
		}
		if len(e.arrivals) > 0 {
			first = min(first, e.arrivals[0].SubmitTime)
		}
		e.nextTick = first + e.tickInterval
	}
	for e.finishedJobs < e.totalJobs {
		if e.ctx != nil && e.steps&ctxCheckMask == 0 {
			if err := e.ctx.Err(); err != nil {
				return e.now, fmt.Errorf("%w after %d events at t=%d: %w", ErrCanceled, e.steps, e.now, err)
			}
		}
		ev, ok := e.next()
		if !ok {
			return e.now, fmt.Errorf("%w at t=%d with %d/%d jobs finished",
				ErrDeadlock, e.now, e.finishedJobs, e.totalJobs)
		}
		if ev.Time < e.now {
			panic(fmt.Sprintf("sim: time moved backwards %d -> %d", e.now, ev.Time))
		}
		e.now = ev.Time
		e.steps++
		if e.maxSteps > 0 && e.steps > e.maxSteps {
			return e.now, fmt.Errorf("%w: %d steps at t=%d (livelock?)",
				ErrMaxSteps, e.maxSteps, e.now)
		}
		switch {
		case ev.Kind == Tick:
			// The loop runs only while jobs remain, so every tick it
			// takes is delivered and advanced.
			e.handler.Handle(ev)
			e.nextTick += e.tickInterval
		case !stale(&ev):
			e.handler.Handle(ev)
			if ev.Kind == Completion {
				e.finishedJobs++
			}
		}
		if e.abortErr != nil {
			return e.now, e.abortErr
		}
		if e.stepHook != nil {
			if err := e.stepHook(e.steps); err != nil {
				return e.now, err
			}
		}
	}
	return e.now, nil
}

// next takes the earliest event from the three sources: the heap, then
// the next arrival, then the tick, on equal times. The heap's kinds all
// sort before Arrival, and Arrival before Tick, so this is the (Time,
// Kind, insertion) order of a single queue. It reports false when no
// source has an event left. A Tick it returns is still pending: Run
// advances the clock field after delivering it.
//
//lint:allocfree always, the heap pops in place
func (e *Engine) next() (Event, bool) {
	ticking := e.tickInterval > 0
	var arrival *job.Job
	if e.nextArrival < len(e.arrivals) {
		arrival = e.arrivals[e.nextArrival]
	}
	if e.heap.len() > 0 {
		t := e.heap.a[0].Time
		if (arrival == nil || t <= arrival.SubmitTime) && (!ticking || t <= e.nextTick) {
			return e.heap.pop(), true
		}
	}
	if arrival != nil && (!ticking || arrival.SubmitTime <= e.nextTick) {
		e.nextArrival++
		return Event{Time: arrival.SubmitTime, Kind: Arrival, Job: arrival}, true
	}
	if ticking {
		return Event{Time: e.nextTick, Kind: Tick}, true
	}
	return Event{}, false
}
