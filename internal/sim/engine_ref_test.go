package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pjs/internal/job"
)

// refEngine is the engine as it was when every event, arrivals and the
// tick included, went through one priority queue ordered by (Time,
// Kind, insertion order): AddJob queued an Arrival, Run queued the
// first Tick and re-queued each delivered one. The queue is an unsorted
// slice read by a linear scan for the minimum, slow but plainly
// ordered. The differential tests below hold Engine to its delivered
// sequence, step count, end time and error.
type refEngine struct {
	now          int64
	seq          int64
	pending      []Event
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

func (e *refEngine) Now() int64 { return e.now }

func (e *refEngine) Abort(err error) {
	if err != nil && e.abortErr == nil {
		e.abortErr = err
	}
}

func (e *refEngine) AddJob(j *job.Job) {
	e.totalJobs++
	e.push(Event{Time: j.SubmitTime, Kind: Arrival, Job: j})
}

func (e *refEngine) Schedule(ev Event) {
	if ev.Time < e.now {
		panic(fmt.Sprintf("ref: %v scheduled in the past (%d < %d)", ev.Kind, ev.Time, e.now))
	}
	if ev.Job != nil {
		ev.Epoch = ev.Job.Epoch
	}
	e.push(ev)
}

func (e *refEngine) push(ev Event) {
	ev.seq = e.seq
	e.seq++
	e.pending = append(e.pending, ev)
}

func (e *refEngine) pop() Event {
	m := 0
	for i := range e.pending {
		if eventLess(&e.pending[i], &e.pending[m]) {
			m = i
		}
	}
	ev := e.pending[m]
	e.pending = append(e.pending[:m], e.pending[m+1:]...)
	return ev
}

func (e *refEngine) Run() (int64, error) {
	if e.tickInterval > 0 && len(e.pending) > 0 {
		first := e.pending[0].Time
		for _, ev := range e.pending {
			first = min(first, ev.Time)
		}
		e.push(Event{Time: first + e.tickInterval, Kind: Tick})
	}
	for e.finishedJobs < e.totalJobs {
		if e.ctx != nil && e.steps&ctxCheckMask == 0 {
			if err := e.ctx.Err(); err != nil {
				return e.now, fmt.Errorf("%w after %d events at t=%d: %w", ErrCanceled, e.steps, e.now, err)
			}
		}
		if len(e.pending) == 0 {
			return e.now, fmt.Errorf("%w at t=%d with %d/%d jobs finished",
				ErrDeadlock, e.now, e.finishedJobs, e.totalJobs)
		}
		ev := e.pop()
		e.now = ev.Time
		e.steps++
		if e.maxSteps > 0 && e.steps > e.maxSteps {
			return e.now, fmt.Errorf("%w: %d steps at t=%d (livelock?)",
				ErrMaxSteps, e.maxSteps, e.now)
		}
		switch {
		case ev.Kind == Tick:
			e.handler.Handle(ev)
			ev.Time += e.tickInterval
			e.push(ev)
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

// engineCase is one decoded differential run: the jobs in AddJob order,
// the events scheduled before Run, the stop conditions, and the script
// of bytes the handler reads one per delivery to pick its reaction.
type engineCase struct {
	tick     int64
	jobs     []struct{ submit, run int64 }
	pre      []Event // ProcFail/ProcRepair, scheduled after the arrivals are added
	maxSteps int64
	hookStop int64 // the step hook stops the run at this step; 0 never
	canceled bool  // the context is canceled before Run
	script   []byte
}

// maxRefSteps bounds every differential run: a script can leave a job
// queued forever while ticks keep the run going.
const maxRefSteps = 3000

// decodeEngineCase reads a case from data; missing bytes read as zero,
// so every input decodes.
func decodeEngineCase(data []byte) engineCase {
	at := 0
	next := func() byte {
		if at >= len(data) {
			return 0
		}
		at++
		return data[at-1]
	}
	var c engineCase
	flags := next()
	c.tick = []int64{0, 1, 4, 10}[flags&3]
	c.canceled = flags&0xfc == 0xfc
	c.jobs = make([]struct{ submit, run int64 }, next()%9)
	for i := range c.jobs {
		b := next()
		c.jobs[i].submit, c.jobs[i].run = int64(b%16), int64(b/16%12)
	}
	for n := next() % 4; n > 0; n-- {
		b := next()
		k := ProcFail
		if b&1 != 0 {
			k = ProcRepair
		}
		c.pre = append(c.pre, Event{Time: int64(b / 2 % 24), Kind: k, Proc: int(b/48) % 4})
	}
	c.maxSteps = maxRefSteps
	if b := next(); b%4 == 0 {
		c.maxSteps = int64(b/4) + 1
	}
	if b := next(); b%4 == 0 {
		c.hookStop = int64(b/4) + 1
	}
	c.script = data[at:]
	return c
}

// engineAPI is what scriptHandler calls back into: both engines have it.
type engineAPI interface {
	Now() int64
	Schedule(Event)
	Abort(error)
}

// delivery is one Handle call as the differential tests compare it.
type delivery struct {
	Time int64
	Kind Kind
	Job  int // job ID, 0 for none
	Proc int
}

var (
	errScriptAbort = errors.New("script abort")
	errHookStop    = errors.New("hook stop")
)

// scriptHandler reacts to each delivery as the next script byte says:
// starting, preempting, killing or failing jobs (which leaves stale
// events behind), scheduling events at the current instant (also from a
// tick), or aborting. Its choices depend only on the delivered sequence
// so far, so both engines see the same calls while they agree.
type scriptHandler struct {
	eng     engineAPI
	jobs    []*job.Job // in ID order
	arrived []bool     // by job index
	script  []byte
	pos     int
	log     []delivery
	check   func() // run after each delivery; nil for none
}

func (h *scriptHandler) op() int {
	if len(h.script) == 0 {
		return 4
	}
	b := h.script[h.pos%len(h.script)]
	h.pos++
	return int(b)
}

// first returns the lowest-ID arrived job in one of the states, or nil.
func (h *scriptHandler) first(states ...job.State) *job.Job {
	for i, j := range h.jobs {
		for _, s := range states {
			if h.arrived[i] && j.State == s {
				return j
			}
		}
	}
	return nil
}

func (h *scriptHandler) start(j *job.Job, read int64) {
	now := h.eng.Now()
	done := j.Dispatch(now, read)
	if read > 0 {
		h.eng.Schedule(Event{Time: now + read, Kind: ReadDone, Job: j})
		return
	}
	h.eng.Schedule(Event{Time: done, Kind: Completion, Job: j})
}

func (h *scriptHandler) Handle(ev Event) {
	d := delivery{Time: ev.Time, Kind: ev.Kind, Proc: ev.Proc}
	if ev.Job != nil {
		d.Job = ev.Job.ID
	}
	h.log = append(h.log, d)
	defer func() {
		if h.check != nil {
			h.check()
		}
	}()
	j, now, op := ev.Job, h.eng.Now(), h.op()
	switch ev.Kind {
	case Arrival:
		h.arrived[j.ID-1] = true
		switch op % 8 {
		case 0: // leave it queued; a tick or repair may start it
		case 1: // start, then preempt at once: the completion goes stale
			h.start(j, 0)
			j.Preempt(now)
			h.eng.Schedule(Event{Time: now + int64(op/8%3), Kind: SuspendDone, Job: j})
		case 2:
			h.start(j, int64(op/8%4))
		case 3:
			if op/8 == 0 {
				h.eng.Abort(errScriptAbort)
				return
			}
			h.start(j, 0)
		default:
			h.start(j, 0)
		}
	case Completion:
		j.Complete(now)
		if op%4 == 0 {
			h.eng.Schedule(Event{Time: now, Kind: ProcRepair, Proc: op / 4 % 4})
		}
	case SuspendDone:
		j.SuspendDone()
		h.start(j, int64(op%3))
	case ReadDone:
		if op%4 == 0 {
			h.eng.Schedule(Event{Time: now, Kind: IORetry, Job: j})
			return
		}
		h.eng.Schedule(Event{Time: now + j.Remaining(), Kind: Completion, Job: j})
	case IORetry:
		h.eng.Schedule(Event{Time: now + int64(op%3), Kind: ReadDone, Job: j})
	case Tick:
		switch op % 4 {
		case 0:
			h.eng.Schedule(Event{Time: now, Kind: ProcFail, Proc: op / 4 % 4})
		case 1:
			if q := h.first(job.Queued, job.Suspended); q != nil {
				h.start(q, 0)
			}
		case 2:
			if r := h.first(job.Running); r != nil {
				r.Preempt(now)
				h.eng.Schedule(Event{Time: now + int64(op/4%3), Kind: SuspendDone, Job: r})
			}
		case 3:
			if r := h.first(job.Running); r != nil {
				r.Kill(now)
			}
		}
	case ProcFail:
		switch op % 3 {
		case 0:
			h.eng.Schedule(Event{Time: now + int64(op/3%4), Kind: ProcRepair, Proc: ev.Proc})
		case 1:
			// A failure under a suspending job drops its SuspendDone;
			// the job waits in the queue for a tick or a repair.
			if r := h.first(job.Running, job.Suspending); r != nil {
				r.Fail(now)
			}
		}
	case ProcRepair:
		if op%2 == 0 {
			if q := h.first(job.Queued, job.Suspended); q != nil {
				h.start(q, 0)
			}
		}
	}
}

// engineRun is what one engine did with a case.
type engineRun struct {
	log   []delivery
	steps int64
	end   int64
	err   error
}

func newCaseJobs(c engineCase) []*job.Job {
	jobs := make([]*job.Job, len(c.jobs))
	for i, s := range c.jobs {
		jobs[i] = job.New(i+1, s.submit, s.run, s.run, 1)
	}
	return jobs
}

// caseHook returns the case's step hook, or nil.
func caseHook(c engineCase) func(int64) error {
	if c.hookStop == 0 {
		return nil
	}
	return func(steps int64) error {
		if steps == c.hookStop {
			return errHookStop
		}
		return nil
	}
}

func caseContext(c engineCase) context.Context {
	if !c.canceled {
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func runEngineCase(t *testing.T, c engineCase) engineRun {
	jobs := newCaseJobs(c)
	h := &scriptHandler{jobs: jobs, arrived: make([]bool, len(jobs)), script: c.script}
	e := New(h, c.tick)
	h.eng = e
	h.check = func() {
		for _, ev := range e.heap.a {
			if ev.Kind == Arrival || ev.Kind == Tick {
				t.Fatalf("heap holds a %v event: %+v", ev.Kind, ev)
			}
		}
	}
	e.SetMaxSteps(c.maxSteps)
	e.SetStepHook(caseHook(c))
	e.SetContext(caseContext(c))
	for _, j := range jobs {
		e.AddJob(j)
	}
	for _, ev := range c.pre {
		e.Schedule(ev)
	}
	end, err := e.Run()
	return engineRun{log: h.log, steps: e.Steps(), end: end, err: err}
}

func runRefCase(c engineCase) engineRun {
	jobs := newCaseJobs(c)
	h := &scriptHandler{jobs: jobs, arrived: make([]bool, len(jobs)), script: c.script}
	e := &refEngine{handler: h, tickInterval: c.tick, maxSteps: c.maxSteps,
		stepHook: caseHook(c), ctx: caseContext(c)}
	h.eng = e
	for _, j := range jobs {
		e.AddJob(j)
	}
	for _, ev := range c.pre {
		e.Schedule(ev)
	}
	end, err := e.Run()
	return engineRun{log: h.log, steps: e.steps, end: end, err: err}
}

// compareEngines runs c on both engines and fails t at the first
// difference.
func compareEngines(t *testing.T, c engineCase) engineRun {
	t.Helper()
	got, want := runEngineCase(t, c), runRefCase(c)
	for i := 0; i < min(len(got.log), len(want.log)); i++ {
		if got.log[i] != want.log[i] {
			t.Fatalf("delivery %d = %+v, reference %+v (case %+v)", i, got.log[i], want.log[i], c)
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("%d deliveries, reference %d (case %+v)", len(got.log), len(want.log), c)
	}
	if got.steps != want.steps || got.end != want.end || errText(got.err) != errText(want.err) {
		t.Fatalf("steps %d end %d err %v, reference steps %d end %d err %v (case %+v)",
			got.steps, got.end, got.err, want.steps, want.end, want.err, c)
	}
	return got
}

// randomEngineInput returns a random case encoding.
func randomEngineInput(rng *rand.Rand) []byte {
	b := make([]byte, 8+rng.Intn(48))
	rng.Read(b)
	return b
}

// TestEngineMatchesReference runs seeded random cases on both engines
// and requires identical deliveries, steps, end times and errors. It
// also requires the cases to reach every path the comparison is for.
func TestEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[string]int{}
	for i := 0; i < 3000; i++ {
		c := decodeEngineCase(randomEngineInput(rng))
		r := compareEngines(t, c)
		if r.err == nil {
			seen["finished"]++
		}
		for _, cause := range []error{ErrDeadlock, ErrMaxSteps, ErrCanceled, errScriptAbort, errHookStop} {
			if errors.Is(r.err, cause) {
				seen[cause.Error()]++
			}
		}
		if r.steps > int64(len(r.log)) {
			seen["stale dropped"]++
		}
		if c.tick == 0 {
			seen["no tick"]++
		}
		for k, d := range r.log {
			if d.Kind == Tick {
				seen["tick"]++
			}
			if k > 0 && d.Time == r.log[k-1].Time && d.Kind == r.log[k-1].Kind && d.Kind == Arrival {
				seen["equal submit"]++
			}
			if k > 0 && d.Time == r.log[k-1].Time && r.log[k-1].Kind == Tick && d.Kind < Arrival {
				seen["scheduled at the tick's instant"]++
			}
			if k > 0 && d.Time == r.log[k-1].Time && d.Kind < r.log[k-1].Kind {
				seen["scheduled at the current instant"]++
			}
		}
		if len(c.pre) > 0 {
			seen["scheduled before run"]++
		}
		for k := 1; k < len(c.jobs); k++ {
			if c.jobs[k].submit < c.jobs[k-1].submit {
				seen["unsorted add"]++
				break
			}
		}
	}
	for _, want := range []string{"finished", ErrDeadlock.Error(), ErrMaxSteps.Error(), ErrCanceled.Error(),
		errScriptAbort.Error(), errHookStop.Error(), "stale dropped", "no tick", "tick", "equal submit",
		"scheduled at the tick's instant", "scheduled at the current instant", "scheduled before run", "unsorted add"} {
		if seen[want] == 0 {
			t.Errorf("no case reached %q (%v)", want, seen)
		}
	}
	t.Logf("cases reaching each path: %v", seen)
}

// FuzzEngineOrder is TestEngineMatchesReference on fuzzed case
// encodings.
func FuzzEngineOrder(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 16; i++ {
		f.Add(randomEngineInput(rng))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		compareEngines(t, decodeEngineCase(data))
	})
}
