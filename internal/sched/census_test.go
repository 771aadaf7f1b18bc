package sched_test

import (
	"fmt"
	"slices"
	"testing"

	"pjs"
	"pjs/internal/job"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// censusOracle recomputes each event's queue census from the event
// stream alone: the jobs whose ActArrive it has seen and that are still
// Queued. It checks the driver's Queued and MaxQueuedXFactor against
// that recomputation at every event.
type censusOracle struct {
	t       *testing.T
	arrived map[int]*job.Job
	events  int // events observed
	busy    int // events observed with a non-empty queue
}

func newCensusOracle(t *testing.T) *censusOracle {
	return &censusOracle{t: t, arrived: make(map[int]*job.Job)}
}

func (o *censusOracle) Observe(ev sched.Event) {
	if ev.Action == sched.ActArrive {
		o.arrived[ev.Job.ID] = ev.Job
	}
	n, max := 0, 0.0
	for _, j := range o.arrived {
		if j.State != job.Queued {
			continue
		}
		n++
		if xf := j.XFactor(ev.Time); xf > max {
			max = xf
		}
	}
	o.events++
	if n > 0 {
		o.busy++
	}
	if ev.Queued != n || ev.MaxQueuedXFactor != max {
		o.t.Fatalf("event %d (%v job %d at t=%d): census Queued=%d MaxQueuedXFactor=%v, recomputed %d and %v",
			o.events, ev.Action, ev.JobID, ev.Time, ev.Queued, ev.MaxQueuedXFactor, n, max)
	}
	if (ev.Queued == 0) != (ev.MaxQueuedXFactor == 0) {
		o.t.Fatalf("event %d (%v at t=%d): Queued=%d but MaxQueuedXFactor=%v",
			o.events, ev.Action, ev.Time, ev.Queued, ev.MaxQueuedXFactor)
	}
}

// arrivalTap forwards to a policy and also hands every arrival to the
// oracle. A resumed run mutes its observer until the watermark, so the
// oracle learns of the jobs that arrived before it from the policy's
// side of the driver instead.
type arrivalTap struct {
	sched.Scheduler
	oracle *censusOracle
}

func (a arrivalTap) OnArrival(j *job.Job) {
	a.oracle.arrived[j.ID] = j
	a.Scheduler.OnArrival(j)
}

var censusModes = []struct {
	name      string
	faults    pjs.FaultConfig
	transient pjs.TransientFaultConfig
}{
	{name: "nofault"},
	{name: "fault", faults: pjs.FaultConfig{MTBF: 500 * 3600, MTTR: 2 * 3600, Seed: 17}},
	{name: "transient", transient: pjs.TransientFaultConfig{
		WriteFailProb: 0.3, ReadFailProb: 0.3, Seed: 9,
		HealthThreshold: 1, HealthWindow: 1 << 40,
	}},
}

func newSpec(t *testing.T, spec string) sched.Scheduler {
	t.Helper()
	s, err := pjs.NewScheduler(spec)
	if err != nil {
		t.Fatalf("NewScheduler(%q): %v", spec, err)
	}
	return s
}

// TestQueuedCensusMatchesRecomputation is the differential test of the
// driver's queued set: for every registry policy, with and without
// processor and transient I/O faults, each event's Queued and
// MaxQueuedXFactor equal the oracle's recomputation.
func TestQueuedCensusMatchesRecomputation(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 200, Seed: 21})
	for _, spec := range pjs.SchedulerSpecs() {
		for _, mode := range censusModes {
			t.Run(spec+"/"+mode.name, func(t *testing.T) {
				o := newCensusOracle(t)
				opt := pjs.DiskOverhead()
				opt.MaxSteps = 50_000_000
				opt.Observer = o
				opt.Faults = mode.faults
				opt.Transient = mode.transient
				if _, err := sched.RunChecked(trace, newSpec(t, spec), opt); err != nil {
					t.Fatal(err)
				}
				if o.busy == 0 {
					t.Fatalf("no event of %d had a queued job; the test lost its bite", o.events)
				}
			})
		}
	}
}

// TestQueuedCensusAfterResume checks the census of a run resumed from
// an interior watermark: the driver's queued set is kept while the
// observer is muted, so the continuation's census is already right at
// the first event the observer sees.
func TestQueuedCensusAfterResume(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 200, Seed: 21})
	opt := pjs.DiskOverhead()
	opt.Faults = censusModes[1].faults
	var snaps []sched.Snapshot
	ref := opt
	ref.Checkpoint = &sched.CheckpointConfig{
		Every: 100,
		Save:  func(s sched.Snapshot) error { snaps = append(snaps, s); return nil },
	}
	if _, err := sched.RunChecked(trace, newSpec(t, "ss:2"), ref); err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 3 {
		t.Fatalf("reference run took %d checkpoints, want at least 3", len(snaps))
	}
	snap := snaps[len(snaps)/2]
	o := newCensusOracle(t)
	opt.Observer = o
	opt.Resume = &snap
	if _, err := sched.RunChecked(trace, arrivalTap{newSpec(t, "ss:2"), o}, opt); err != nil {
		t.Fatal(err)
	}
	if o.busy == 0 {
		t.Fatalf("no resumed event of %d had a queued job; the test lost its bite", o.events)
	}
}

// TestQueuedCensusExcludesUndeliveredArrivals pins the census at an
// instant where a completion is delivered before a same-instant
// arrival: the job not yet delivered is not queued, so the finish event
// reports an empty queue and no xfactor.
func TestQueuedCensusExcludesUndeliveredArrivals(t *testing.T) {
	trace := &workload.Trace{Name: "t", Procs: 1, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 1),
		job.New(2, 100, 10, 10, 1),
	}}
	o := newCensusOracle(t)
	if _, err := sched.RunChecked(trace, newSpec(t, "fcfs"), sched.Options{Observer: o}); err != nil {
		t.Fatal(err)
	}
	if o.busy == 0 {
		t.Fatalf("no event of %d had a queued job; the test lost its bite", o.events)
	}
}

// countTap forwards to a policy and, at every arrival, recounts the
// arrived jobs still Queued and compares the driver's count.
type countTap struct {
	sched.Scheduler
	t       *testing.T
	env     *sched.Env
	arrived []*job.Job
	busy    int // arrivals that found another job queued
}

func (c *countTap) Init(env *sched.Env) {
	c.env = env
	c.Scheduler.Init(env)
}

func (c *countTap) OnArrival(j *job.Job) {
	c.arrived = append(c.arrived, j)
	n := 0
	for _, a := range c.arrived {
		if a.State == job.Queued {
			n++
		}
	}
	if got := sched.QueuedCount(c.env); got != n {
		c.t.Fatalf("arrival of job %d: driver counts %d queued, recounted %d", j.ID, got, n)
	}
	if n > 1 {
		c.busy++
	}
	c.Scheduler.OnArrival(j)
}

// TestQueuedCountWithoutObserver covers the driver's unobserved path:
// without an observer, the count of queued jobs that the postmortem
// reports stays right through starts, kills, failures and requeues.
func TestQueuedCountWithoutObserver(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 200, Seed: 21})
	for _, spec := range pjs.SchedulerSpecs() {
		for _, mode := range censusModes {
			t.Run(spec+"/"+mode.name, func(t *testing.T) {
				tap := &countTap{Scheduler: newSpec(t, spec), t: t}
				opt := pjs.DiskOverhead()
				opt.MaxSteps = 50_000_000
				opt.Faults = mode.faults
				opt.Transient = mode.transient
				if _, err := sched.RunChecked(trace, tap, opt); err != nil {
					t.Fatal(err)
				}
				if tap.busy == 0 {
					t.Fatal("no arrival found another job queued; the test lost its bite")
				}
			})
		}
	}
}

// setsTap forwards every hook to a policy and, when the hook is entered
// and when it returns, recounts the running and idle jobs from the
// states of the arrived jobs and the driver's pending starts, and
// requires that Env.Running and Env.Idle hold exactly those jobs, each
// once, and that Env.Idle is in FCFS order with its widths in step.
type setsTap struct {
	sched.Scheduler
	t       *testing.T
	env     *sched.Env
	live    []*job.Job // arrived and not seen finished
	pending []*job.Job // the pending starts at the last check
	checks  int
	both    int // checks that found running and idle jobs
	aborts  int // pending starts that a failure aborted
}

func (s *setsTap) Init(env *sched.Env) {
	s.env = env
	s.Scheduler.Init(env)
}

func (s *setsTap) OnArrival(j *job.Job) {
	s.live = append(s.live, j)
	s.around("arrival", func() { s.Scheduler.OnArrival(j) })
}

func (s *setsTap) OnCompletion(j *job.Job) {
	s.around("completion", func() { s.Scheduler.OnCompletion(j) })
}

func (s *setsTap) OnSuspendDone(j *job.Job) {
	s.around("suspend-done", func() { s.Scheduler.OnSuspendDone(j) })
}

func (s *setsTap) OnTick() { s.around("tick", s.Scheduler.OnTick) }

// OnFailure also counts the displaced jobs that were pending starts at
// the last check and are no longer: the failure aborted them. Every
// event that can start a pending job ends in a hook, so none of them
// started since that check.
func (s *setsTap) OnFailure(p int, requeued []*job.Job) {
	now := sched.PendingJobs(s.env)
	for _, j := range requeued {
		if slices.Contains(s.pending, j) && !slices.Contains(now, j) {
			s.aborts++
		}
	}
	s.around("failure", func() { s.Scheduler.OnFailure(p, requeued) })
}

func (s *setsTap) OnRepair(p int) { s.around("repair", func() { s.Scheduler.OnRepair(p) }) }

// around checks the sets before and after hook.
func (s *setsTap) around(name string, hook func()) {
	s.check("entering " + name)
	hook()
	s.check("after " + name)
}

func (s *setsTap) check(at string) {
	s.t.Helper()
	s.pending = sched.PendingJobs(s.env)
	var running, idle []*job.Job
	live := s.live[:0]
	for _, j := range s.live {
		switch {
		case j.State == job.Finished:
			continue
		case j.State == job.Running:
			running = append(running, j)
		case (j.State == job.Queued || j.State == job.Suspended) && !slices.Contains(s.pending, j):
			idle = append(idle, j)
		}
		live = append(live, j)
	}
	s.live = live
	s.checks++
	if len(running) > 0 && len(idle) > 0 {
		s.both++
	}
	sameJobs(s.t, fmt.Sprintf("at %d %s: Running()", s.env.Now(), at), s.env.Running(), running)
	sameJobs(s.t, fmt.Sprintf("at %d %s: Idle()", s.env.Now(), at), s.env.Idle(), idle)
	inFCFSOrder(s.t, fmt.Sprintf("at %d %s", s.env.Now(), at), s.env.Idle(), sched.IdleWidths(s.env))
}

// inFCFSOrder fails t unless queue is strictly increasing in
// (SubmitTime, ID) and widths holds its jobs' widths.
func inFCFSOrder(t *testing.T, what string, queue []*job.Job, widths []int32) {
	t.Helper()
	if len(widths) != len(queue) {
		t.Fatalf("%s: %d widths for %d idle jobs", what, len(widths), len(queue))
	}
	for i, j := range queue {
		if int(widths[i]) != j.Procs {
			t.Fatalf("%s: width %d at index %d, job %d is %d wide", what, widths[i], i, j.ID, j.Procs)
		}
		if i == 0 {
			continue
		}
		if p := queue[i-1]; p.SubmitTime > j.SubmitTime || p.SubmitTime == j.SubmitTime && p.ID >= j.ID {
			t.Fatalf("%s: idle job %d (submit %d) before job %d (submit %d)", what, p.ID, p.SubmitTime, j.ID, j.SubmitTime)
		}
	}
}

// sameJobs fails t unless got holds each job of want once and nothing
// else.
func sameJobs(t *testing.T, what string, got, want []*job.Job) {
	t.Helper()
	seen := make(map[*job.Job]bool, len(got))
	for _, j := range got {
		if seen[j] {
			t.Fatalf("%s lists job %d twice", what, j.ID)
		}
		seen[j] = true
	}
	for _, j := range want {
		if !seen[j] {
			t.Fatalf("%s misses job %d (%v); it lists %d jobs, the recount %d", what, j.ID, j.State, len(got), len(want))
		}
	}
	if len(got) != len(want) {
		for _, j := range got {
			if !slices.Contains(want, j) {
				t.Fatalf("%s lists job %d (%v), which the recount does not", what, j.ID, j.State)
			}
		}
	}
}

// runSets runs spec over trace under mode behind a setsTap, with OnTick
// at every tick when every is set, and returns the tap.
func runSets(t *testing.T, trace *pjs.Trace, spec string, mode int, every bool) *setsTap {
	t.Helper()
	tap := &setsTap{Scheduler: newSpec(t, spec), t: t}
	var s sched.Scheduler = tap
	if every {
		s = sched.TickAlways(tap)
	}
	opt := pjs.DiskOverhead()
	opt.MaxSteps = 50_000_000
	opt.Faults = censusModes[mode].faults
	opt.Transient = censusModes[mode].transient
	if _, err := sched.RunChecked(trace, s, opt); err != nil {
		t.Fatal(err)
	}
	return tap
}

// TestRunningAndIdleMatchRecount is the differential test of the sets
// the driver keeps for the policies: for every registry policy, under
// each fault mode, with quiet ticks and with OnTick at every tick, each
// hook is entered and returns with Env.Running and Env.Idle holding the
// jobs a recount from job states and pending starts gives.
func TestRunningAndIdleMatchRecount(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 200, Seed: 21})
	for _, spec := range pjs.SchedulerSpecs() {
		for mode := range censusModes {
			for _, every := range []bool{false, true} {
				name := spec + "/" + censusModes[mode].name
				if every {
					name += "/every-tick"
				}
				t.Run(name, func(t *testing.T) {
					if tap := runSets(t, trace, spec, mode, every); tap.both == 0 {
						t.Fatalf("no check of %d found both running and idle jobs; the test lost its bite", tap.checks)
					}
				})
			}
		}
	}
}

// TestRunningAndIdleAfterAbortedStarts holds the sets to the recount
// where a processor failure aborts pending starts, which then are idle
// again. A failure aborts one only when it hits the claim before the
// victims' images are written, so the policies that commit preemptions
// run a trace long enough for that to happen under the processor
// faults of censusModes.
func TestRunningAndIdleAfterAbortedStarts(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 2000, Seed: 21})
	for _, spec := range []string{"is", "ss:2", "tss:2", "ssmig:2"} {
		t.Run(spec, func(t *testing.T) {
			if tap := runSets(t, trace, spec, 1, false); tap.aborts == 0 {
				t.Fatal("no failure aborted a pending start; the test lost its bite")
			}
		})
	}
}
