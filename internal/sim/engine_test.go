package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"pjs/internal/job"
)

// recordingHandler runs every job immediately on arrival, serially on an
// imaginary infinite machine, and records the order of callbacks.
type recordingHandler struct {
	eng    *Engine
	events []string
	ticks  int
}

func (h *recordingHandler) Handle(ev Event) {
	switch ev.Kind {
	case Arrival:
		h.events = append(h.events, "arrive")
		done := ev.Job.Dispatch(h.eng.Now(), 0)
		h.eng.Schedule(Event{Time: done, Kind: Completion, Job: ev.Job})
	case Completion:
		h.events = append(h.events, "complete")
		ev.Job.Complete(h.eng.Now())
	case Tick:
		h.ticks++
	default:
		h.events = append(h.events, ev.Kind.String())
	}
}

func TestEngineRunsJobsToCompletion(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 0)
	h.eng = e
	j1 := job.New(1, 0, 100, 100, 1)
	j2 := job.New(2, 50, 10, 10, 1)
	e.AddJob(j1)
	e.AddJob(j2)
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 100 {
		t.Errorf("end = %d, want 100", end)
	}
	if j1.FinishTime != 100 || j2.FinishTime != 60 {
		t.Errorf("finish times %d,%d want 100,60", j1.FinishTime, j2.FinishTime)
	}
}

func TestCompletionBeforeArrivalAtSameInstant(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 0)
	h.eng = e
	e.AddJob(job.New(1, 0, 100, 100, 1)) // completes at 100
	e.AddJob(job.New(2, 100, 10, 10, 1)) // arrives at 100
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"arrive", "complete", "arrive", "complete"}
	if len(h.events) != len(want) {
		t.Fatalf("events = %v", h.events)
	}
	for i := range want {
		if h.events[i] != want[i] {
			t.Fatalf("events = %v, want %v", h.events, want)
		}
	}
}

func TestTicksFireAtInterval(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 60)
	h.eng = e
	e.AddJob(job.New(1, 0, 600, 600, 1))
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Ticks at 60,120,...,600; the tick at 600 is not delivered because
	// the completion (same time, lower kind) finishes the run first.
	if h.ticks != 9 {
		t.Errorf("ticks = %d, want 9", h.ticks)
	}
}

func TestNoTicksWhenDisabled(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 0)
	h.eng = e
	e.AddJob(job.New(1, 0, 600, 600, 1))
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if h.ticks != 0 {
		t.Errorf("ticks = %d, want 0", h.ticks)
	}
}

// staleHandler preempts the job right after dispatch so that the original
// completion event becomes stale, then re-dispatches.
type staleHandler struct {
	eng         *Engine
	completions int
}

func (h *staleHandler) Handle(ev Event) {
	j, now := ev.Job, h.eng.Now()
	switch ev.Kind {
	case Arrival:
		done := j.Dispatch(now, 0)
		h.eng.Schedule(Event{Time: done, Kind: Completion, Job: j}) // will become stale
		j.Preempt(now)
		h.eng.Schedule(Event{Time: now + 5, Kind: SuspendDone, Job: j})
	case Completion:
		h.completions++
		j.Complete(now)
	case SuspendDone:
		j.SuspendDone()
		done := j.Dispatch(now, 0)
		h.eng.Schedule(Event{Time: done, Kind: Completion, Job: j})
	}
}

func TestStaleCompletionDropped(t *testing.T) {
	h := &staleHandler{}
	e := New(h, 0)
	h.eng = e
	j := job.New(1, 0, 100, 100, 1)
	e.AddJob(j)
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if h.completions != 1 {
		t.Errorf("completions = %d, want exactly 1 (stale dropped)", h.completions)
	}
	if end != 105 { // 5s suspended at t=0, then 100s of work
		t.Errorf("end = %d, want 105", end)
	}
}

// mustPanic runs f and returns its panic message, failing t when f
// returns normally.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic")
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

// TestScheduleInPastPanics: Schedule refuses an event earlier than the
// clock, whatever its kind.
func TestScheduleInPastPanics(t *testing.T) {
	for _, k := range []Kind{Completion, SuspendDone, ReadDone, IORetry, ProcFail, ProcRepair, Arrival} {
		t.Run(k.String(), func(t *testing.T) {
			e := New(dropHandler{}, 0)
			e.now = 100
			ev := Event{Time: 50, Kind: k, Job: job.New(1, 0, 10, 10, 1)}
			if k == ProcFail || k == ProcRepair {
				ev.Job, ev.Proc = nil, 3
			}
			msg := mustPanic(t, func() { e.Schedule(ev) })
			if !strings.Contains(msg, k.String()) || !strings.Contains(msg, "scheduled in the past (50 < 100)") {
				t.Errorf("panic = %q", msg)
			}
			if e.heap.len() != 0 {
				t.Errorf("refused event was queued")
			}
		})
	}
}

// TestScheduleRefusesTicks: ticks are the engine's own, so a second
// chain cannot be started through Schedule.
func TestScheduleRefusesTicks(t *testing.T) {
	e := New(dropHandler{}, 60)
	if msg := mustPanic(t, func() { e.Schedule(Event{Time: 10, Kind: Tick}) }); !strings.Contains(msg, "ticks") {
		t.Errorf("panic = %q", msg)
	}
}

// TestScheduleRefusesArrivals: arrivals belong to AddJob, and the merge
// of the three event sources relies on no arrival entering the heap.
func TestScheduleRefusesArrivals(t *testing.T) {
	e := New(dropHandler{}, 0)
	ev := Event{Time: 10, Kind: Arrival, Job: job.New(1, 10, 10, 10, 1)}
	if msg := mustPanic(t, func() { e.Schedule(ev) }); !strings.Contains(msg, "AddJob") {
		t.Errorf("panic = %q", msg)
	}
	if e.heap.len() != 0 || e.totalJobs != 0 {
		t.Errorf("refused arrival was queued or counted")
	}
}

// TestScheduleZeroAllocs: once the heap has grown, scheduling an event
// and taking it for delivery allocates nothing.
func TestScheduleZeroAllocs(t *testing.T) {
	e := New(dropHandler{}, 60)
	e.nextTick = 1 << 40 // a tick source in the merge that never wins
	j := job.New(1, 0, 10, 10, 1)
	for i := 0; i < 64; i++ {
		e.Schedule(Event{Time: int64(i), Kind: ProcFail, Proc: i})
	}
	for e.heap.len() > 0 {
		e.heap.pop()
	}
	var h Handler = dropHandler{}
	if n := testing.AllocsPerRun(1000, func() {
		e.Schedule(Event{Time: e.now, Kind: Completion, Job: j})
		e.Schedule(Event{Time: e.now + 1, Kind: ProcFail, Proc: 3})
		for i := 0; i < 2; i++ {
			ev, ok := e.next()
			if !ok || ev.Kind == Tick {
				t.Fatalf("next = %+v, %v", ev, ok)
			}
			h.Handle(ev)
		}
	}); n != 0 {
		t.Errorf("Schedule plus delivery allocated %v times per run, want 0", n)
	}
}

// TestScheduleBindsJobEpoch: a job event carries the job's epoch at
// scheduling time, whatever Epoch the caller passed; a processor event
// carries none.
func TestScheduleBindsJobEpoch(t *testing.T) {
	e := New(dropHandler{}, 0)
	j := job.New(1, 0, 10, 10, 1)
	j.Dispatch(0, 0)
	e.Schedule(Event{Time: 10, Kind: Completion, Job: j, Epoch: 99})
	e.Schedule(Event{Time: 20, Kind: ProcFail, Proc: 2, Epoch: 99})
	if ev := e.heap.pop(); ev.Epoch != j.Epoch {
		t.Errorf("completion epoch = %d, want the job's %d", ev.Epoch, j.Epoch)
	}
	if ev := e.heap.pop(); ev.Epoch != 99 || ev.Proc != 2 {
		t.Errorf("proc-fail event = %+v, want it passed through", ev)
	}
}

// epochHandler leaves a job event of kind stale queued at t=10: the
// job is dispatched, the event scheduled, and the job killed and
// re-dispatched, so at t=10 it is again in the state the event expects
// (Running, or Suspending for SuspendDone) but in a later epoch. The
// job then runs to completion through fresh events.
type epochHandler struct {
	eng       *Engine
	stale     Kind
	delivered []string
}

func (h *epochHandler) Handle(ev Event) {
	h.delivered = append(h.delivered, fmt.Sprintf("%v@%d", ev.Kind, ev.Time))
	j, now := ev.Job, h.eng.Now()
	switch ev.Kind {
	case Arrival:
		j.Dispatch(now, 0)
		h.eng.Schedule(Event{Time: 10, Kind: h.stale, Job: j})
		j.Kill(now)
		done := j.Dispatch(now, 0)
		if h.stale != SuspendDone {
			h.eng.Schedule(Event{Time: done, Kind: Completion, Job: j})
			return
		}
		j.Preempt(now)
		h.eng.Schedule(Event{Time: 20, Kind: SuspendDone, Job: j})
	case SuspendDone:
		j.SuspendDone()
		h.eng.Schedule(Event{Time: j.Dispatch(now, 0), Kind: Completion, Job: j})
	case Completion:
		j.Complete(now)
	}
}

// TestStaleJobEventsNeverDelivered: an event whose job's epoch moved
// on is dropped by Run — Handle never sees it, and a stale Completion
// does not count its job finished.
func TestStaleJobEventsNeverDelivered(t *testing.T) {
	cases := []struct {
		kind Kind
		want []string
		end  int64
	}{
		{Completion, []string{"arrival@0", "completion@100"}, 100},
		{SuspendDone, []string{"arrival@0", "suspend-done@20", "completion@120"}, 120},
		{ReadDone, []string{"arrival@0", "completion@100"}, 100},
		{IORetry, []string{"arrival@0", "completion@100"}, 100},
	}
	for _, c := range cases {
		t.Run(c.kind.String(), func(t *testing.T) {
			h := &epochHandler{stale: c.kind}
			e := New(h, 0)
			h.eng = e
			e.AddJob(job.New(1, 0, 100, 100, 1))
			end, err := e.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if fmt.Sprint(h.delivered) != fmt.Sprint(c.want) {
				t.Errorf("delivered %v, want %v", h.delivered, c.want)
			}
			if end != c.end {
				t.Errorf("end = %d, want %d", end, c.end)
			}
		})
	}
}

// completeOnlyHandler starts each job on arrival and, on its
// completion, only marks the job done — no bookkeeping call back into
// the engine.
type completeOnlyHandler struct {
	eng       *Engine
	delivered []Kind
}

func (h *completeOnlyHandler) Handle(ev Event) {
	h.delivered = append(h.delivered, ev.Kind)
	switch ev.Kind {
	case Arrival:
		h.eng.Schedule(Event{Time: ev.Job.Dispatch(h.eng.Now(), 0), Kind: Completion, Job: ev.Job})
	case Completion:
		ev.Job.Complete(h.eng.Now())
	}
}

// TestRunEndsAfterLastCompletion: the engine counts delivered
// completions itself, so Run returns at the last job's completion and
// delivers nothing queued after it.
func TestRunEndsAfterLastCompletion(t *testing.T) {
	h := &completeOnlyHandler{}
	e := New(h, 0)
	h.eng = e
	e.AddJob(job.New(1, 0, 30, 30, 1))
	e.AddJob(job.New(2, 5, 50, 50, 1))
	e.Schedule(Event{Time: 1000, Kind: ProcFail, Proc: 0})
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 55 {
		t.Errorf("end = %d, want 55", end)
	}
	want := []Kind{Arrival, Arrival, Completion, Completion}
	if fmt.Sprint(h.delivered) != fmt.Sprint(want) {
		t.Errorf("delivered %v, want %v", h.delivered, want)
	}
	if e.Steps() != 4 {
		t.Errorf("steps = %d, want 4", e.Steps())
	}
}

func TestMaxStepsReturnsError(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 1) // tick every second, forever-ish
	h.eng = e
	e.AddJob(job.New(1, 0, 1000, 1000, 1))
	e.SetMaxSteps(10)
	if _, err := e.Run(); !errors.Is(err, ErrMaxSteps) {
		t.Errorf("Run error = %v, want ErrMaxSteps", err)
	}
}

// dropHandler ignores arrivals, so the queue drains with the job
// unfinished: Run must report a deadlock instead of looping or lying.
type dropHandler struct{}

func (dropHandler) Handle(Event) {}

func TestDeadlockReturnsError(t *testing.T) {
	e := New(dropHandler{}, 0)
	e.AddJob(job.New(1, 0, 100, 100, 1))
	if _, err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Errorf("Run error = %v, want ErrDeadlock", err)
	}
}

// abortHandler aborts the run from inside the first arrival.
type abortHandler struct {
	eng *Engine
	err error
}

func (h *abortHandler) Handle(ev Event) {
	if ev.Kind == Arrival {
		h.eng.Abort(h.err)
	}
}

func TestAbortStopsRunWithError(t *testing.T) {
	want := errors.New("unfinishable")
	h := &abortHandler{err: want}
	e := New(h, 0)
	h.eng = e
	e.AddJob(job.New(1, 0, 100, 100, 1))
	if _, err := e.Run(); !errors.Is(err, want) {
		t.Errorf("Run error = %v, want %v", err, want)
	}
}

// faultHandler records fail/repair deliveries with their times.
type faultHandler struct {
	recordingHandler
	faults []string
}

func (h *faultHandler) Handle(ev Event) {
	switch ev.Kind {
	case ProcFail:
		h.faults = append(h.faults, fmt.Sprintf("fail:%d@%d", ev.Proc, h.eng.Now()))
	case ProcRepair:
		h.faults = append(h.faults, fmt.Sprintf("repair:%d@%d", ev.Proc, h.eng.Now()))
	default:
		h.recordingHandler.Handle(ev)
	}
}

func TestProcFailRepairDelivery(t *testing.T) {
	h := &faultHandler{}
	e := New(h, 0)
	h.eng = e
	e.AddJob(job.New(1, 0, 100, 100, 1))
	e.Schedule(Event{Time: 10, Kind: ProcFail, Proc: 3})
	e.Schedule(Event{Time: 20, Kind: ProcRepair, Proc: 3})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"fail:3@10", "repair:3@20"}
	if len(h.faults) != len(want) || h.faults[0] != want[0] || h.faults[1] != want[1] {
		t.Errorf("faults = %v, want %v", h.faults, want)
	}
}

// readRetryHandler models the transient-fault restart path: dispatch
// schedules a ReadDone, the first ReadDone books a retry, the retry
// re-schedules the read, and the second ReadDone completes the job.
type readRetryHandler struct {
	eng      *Engine
	reads    int
	retries  int
	finished bool
}

func (h *readRetryHandler) Handle(ev Event) {
	j, now := ev.Job, h.eng.Now()
	switch ev.Kind {
	case Arrival:
		j.Dispatch(now, 10)
		h.eng.Schedule(Event{Time: now + 10, Kind: ReadDone, Job: j})
	case Completion:
		j.Complete(now)
		h.finished = true
	case ReadDone:
		h.reads++
		if h.reads == 1 {
			j.ExtendRead(5 + 10)
			h.eng.Schedule(Event{Time: now + 5, Kind: IORetry, Job: j})
			return
		}
		h.eng.Schedule(Event{Time: now + j.Remaining(), Kind: Completion, Job: j})
	case IORetry:
		h.retries++
		h.eng.Schedule(Event{Time: now + 10, Kind: ReadDone, Job: j})
	}
}

func TestReadDoneRetryCycle(t *testing.T) {
	h := &readRetryHandler{}
	e := New(h, 0)
	h.eng = e
	j := job.New(1, 0, 100, 100, 1)
	e.AddJob(j)
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if h.reads != 2 || h.retries != 1 || !h.finished {
		t.Errorf("reads=%d retries=%d finished=%v, want 2/1/true", h.reads, h.retries, h.finished)
	}
	// t=0 dispatch; read fails at 10; retry at 15; read done at 25;
	// then 100s of compute.
	if end != 125 {
		t.Errorf("end = %d, want 125", end)
	}
}

// An epoch change (e.g. the job was killed by a processor failure)
// invalidates pending ReadDone and IORetry events.
func TestReadDoneIORetryStaleOnEpochChange(t *testing.T) {
	j := job.New(1, 0, 100, 100, 1)
	j.Dispatch(0, 10)
	evRead := &Event{Kind: ReadDone, Job: j, Epoch: j.Epoch}
	evRetry := &Event{Kind: IORetry, Job: j, Epoch: j.Epoch}
	if stale(evRead) || stale(evRetry) {
		t.Fatal("fresh events must not be stale")
	}
	j.Fail(5)
	if !stale(evRead) || !stale(evRetry) {
		t.Error("events bound to a dead epoch must be stale")
	}
}

func TestHeapOrdering(t *testing.T) {
	e := New(dropHandler{}, 0)
	rng := rand.New(rand.NewSource(42))
	const n = 500
	for i := 0; i < n; i++ {
		e.Schedule(Event{Time: int64(rng.Intn(100)), Kind: Kind(rng.Intn(4))})
	}
	var prev Event
	for i := 0; e.heap.len() > 0; i++ {
		ev := e.heap.pop()
		if i > 0 && eventLess(&ev, &prev) {
			t.Fatalf("heap order violated: %+v after %+v", ev, prev)
		}
		prev = ev
	}
}

func TestHeapTieBreakByKindThenSeq(t *testing.T) {
	e := New(dropHandler{}, 10)
	// Same time, every heap kind, scheduled in reverse priority order.
	for k := ProcRepair; k >= Completion; k-- {
		e.Schedule(Event{Time: 10, Kind: k})
	}
	want := []Kind{Completion, SuspendDone, ReadDone, IORetry, ProcFail, ProcRepair}
	for i, k := range want {
		if got := e.heap.pop().Kind; got != k {
			t.Fatalf("pop %d = %v, want %v", i, got, k)
		}
	}
	// Same time and kind: FIFO by insertion.
	e.Schedule(Event{Time: 5, Kind: ProcFail, Proc: 1})
	e.Schedule(Event{Time: 5, Kind: ProcFail, Proc: 2})
	if a, b := e.heap.pop(), e.heap.pop(); a.Proc != 1 || b.Proc != 2 {
		t.Errorf("equal events popped procs %d,%d, want insertion order 1,2", a.Proc, b.Proc)
	}
	// Across the three sources at one instant: heap kinds, then the
	// arrival, then the tick.
	e.AddJob(job.New(1, 10, 5, 5, 1))
	e.Schedule(Event{Time: 10, Kind: ProcRepair})
	e.Schedule(Event{Time: 10, Kind: Completion})
	e.nextTick = 10
	want = []Kind{Completion, ProcRepair, Arrival, Tick}
	for i, k := range want {
		if ev, ok := e.next(); !ok || ev.Kind != k || ev.Time != 10 {
			t.Fatalf("next %d = %+v, %v, want %v at 10", i, ev, ok, k)
		}
	}
}

// arrivalOrderHandler records arrival job IDs and completes each job at
// once.
type arrivalOrderHandler struct {
	eng *Engine
	ids []int
}

func (h *arrivalOrderHandler) Handle(ev Event) {
	switch ev.Kind {
	case Arrival:
		h.ids = append(h.ids, ev.Job.ID)
		ev.Job.Dispatch(h.eng.Now(), 0)
		h.eng.Schedule(Event{Time: h.eng.Now(), Kind: Completion, Job: ev.Job})
	case Completion:
		ev.Job.Complete(h.eng.Now())
	}
}

// TestArrivalsFIFOOnEqualSubmit: Run sorts the arrivals by submit time
// and keeps AddJob order among equal ones. The list is long enough for
// the sort to leave insertion sort, so an unstable sort shows.
func TestArrivalsFIFOOnEqualSubmit(t *testing.T) {
	h := &arrivalOrderHandler{}
	e := New(h, 0)
	h.eng = e
	rng := rand.New(rand.NewSource(3))
	for id := 1; id <= 200; id++ {
		e.AddJob(job.New(id, int64(rng.Intn(8)), 1, 1, 1))
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(h.ids) != 200 {
		t.Fatalf("%d arrivals, want 200", len(h.ids))
	}
	for i := 1; i < len(h.ids); i++ {
		a, b := e.arrivals[i-1], e.arrivals[i]
		if a.ID != h.ids[i-1] || b.ID != h.ids[i] {
			t.Fatalf("arrival %d is job %d, the sorted list has %d", i, h.ids[i], b.ID)
		}
		if a.SubmitTime > b.SubmitTime || (a.SubmitTime == b.SubmitTime && a.ID > b.ID) {
			t.Fatalf("job %d (submit %d) arrived before job %d (submit %d)", a.ID, a.SubmitTime, b.ID, b.SubmitTime)
		}
	}
}

// Property: the heap pops any random sequence of events in sorted order.
func TestHeapSortProperty(t *testing.T) {
	f := func(ts []uint16, kinds []uint8) bool {
		e := New(dropHandler{}, 0)
		for i, ti := range ts {
			k := Completion
			if i < len(kinds) {
				k = Kind(kinds[i] % uint8(Arrival))
			}
			e.Schedule(Event{Time: int64(ti), Kind: k})
		}
		got := make([]int64, 0, len(ts))
		for e.heap.len() > 0 {
			got = append(got, e.heap.pop().Time)
		}
		return len(got) == len(ts) && sort.SliceIsSorted(got, func(i, k int) bool { return got[i] < got[k] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		Completion: "completion", SuspendDone: "suspend-done",
		ReadDone: "read-done", IORetry: "io-retry",
		ProcFail: "proc-fail", ProcRepair: "proc-repair",
		Arrival: "arrival", Tick: "tick",
	}
	for k, w := range names {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), w)
		}
	}
}

// TestRunHonorsCanceledContext: a context canceled before the run
// starts stops it at the first event boundary with a wrapped
// ErrCanceled that also carries the context's own error.
func TestRunHonorsCanceledContext(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 0)
	h.eng = e
	e.AddJob(job.New(1, 0, 100, 100, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.SetContext(ctx)
	_, err := e.Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, should wrap context.Canceled", err)
	}
	if len(h.events) != 0 {
		t.Errorf("canceled-before-start run processed %d events", len(h.events))
	}
}

// TestRunStepHook: the hook sees every processed event exactly once,
// in order, and its error aborts the run.
func TestRunStepHook(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 0)
	h.eng = e
	e.AddJob(job.New(1, 0, 100, 100, 1))
	e.AddJob(job.New(2, 50, 10, 10, 1))
	var seen []int64
	e.SetStepHook(func(steps int64) error {
		seen = append(seen, steps)
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(seen) != len(h.events) {
		t.Fatalf("hook fired %d times for %d events", len(seen), len(h.events))
	}
	for i, s := range seen {
		if s != int64(i+1) {
			t.Fatalf("hook call %d reported steps=%d, want %d", i, s, i+1)
		}
	}

	// A hook error stops the run and surfaces verbatim.
	h2 := &recordingHandler{}
	e2 := New(h2, 0)
	h2.eng = e2
	e2.AddJob(job.New(1, 0, 100, 100, 1))
	boom := errors.New("stop here")
	e2.SetStepHook(func(steps int64) error {
		if steps == 1 {
			return boom
		}
		return nil
	})
	if _, err := e2.Run(); !errors.Is(err, boom) {
		t.Errorf("err = %v, want the hook's error", err)
	}
	if len(h2.events) != 1 {
		t.Errorf("run continued past the hook error: %d events", len(h2.events))
	}
}

// TestAddJobTakesTheSlice pins AddJob with a slice: the engine runs the
// jobs of the slice it was given, in submit order, without copying it,
// and a later AddJob appends to a copy instead of writing into the
// caller's spare capacity.
func TestAddJobTakesTheSlice(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 0)
	h.eng = e
	spare := job.New(9, 0, 1, 1, 1)
	jobs := make([]*job.Job, 2, 3)
	jobs[0], jobs[1] = job.New(1, 0, 100, 100, 1), job.New(2, 50, 10, 10, 1)
	jobs = append(jobs, spare)[:2]
	e.AddJob(jobs...)
	if &e.arrivals[0] != &jobs[0] {
		t.Error("AddJob copied the slice")
	}
	e.AddJob(job.New(3, 70, 10, 10, 1))
	if jobs[:3][2] != spare {
		t.Fatal("a second AddJob wrote into the caller's slice")
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := strings.Join(h.events, " "); got != "arrive arrive complete arrive complete complete" {
		t.Errorf("events %q", got)
	}
}
