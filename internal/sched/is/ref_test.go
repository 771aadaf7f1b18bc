package is

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/sim"
	"pjs/internal/workload"
)

// refIS is IS as it was before its horizon became the pass filter and
// before the driver kept the idle and running jobs: every hook sorts
// its whole idle queue and walks it, and a tick first asks refHorizon,
// a scan of its own, whether the pass could act. It keeps its own queue
// and running list from the hooks, and never reads the driver's, so a
// difference is the filter's or the driver's sets'. It shares the
// protected slices (sliceEnd) with Sched.
//
// everyTick makes OnTick run the pass at every tick without asking the
// driver to skip any, as sched.TickAlways does (that wrapper is only
// visible to the tests of package sched).
type refIS struct {
	*Sched
	everyTick bool
	queue     []*job.Job // idle: fresh and suspended, excluding pending
	running   []*job.Job // running or committed-to-run (pending)
}

func (r *refIS) OnArrival(j *job.Job) {
	r.queue = append(r.queue, j)
	r.refSchedule()
}

func (r *refIS) OnCompletion(j *job.Job) {
	r.running = remove(r.running, j)
	delete(r.sliceEnd, j.ID)
	r.refSchedule()
}

func (r *refIS) OnSuspendDone(j *job.Job) {
	r.queue = append(r.queue, j)
	r.refSchedule()
}

func (r *refIS) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		r.running = remove(r.running, j)
		delete(r.sliceEnd, j.ID)
		if !slices.Contains(r.queue, j) {
			r.queue = append(r.queue, j)
		}
	}
	r.refSchedule()
}

func (r *refIS) OnRepair(int) { r.refSchedule() }

func (r *refIS) OnTick() {
	now := r.env.Now()
	if h := r.refHorizon(now); !r.everyTick && now < h && r.env.QuietUntil(h) {
		return
	}
	r.refSchedule()
}

// refSchedule serves the whole idle queue in descending
// instantaneous-xfactor order, as Sched.serve does its actors.
func (r *refIS) refSchedule() {
	now := r.env.Now()
	r.idle = append(r.idle[:0], r.queue...)
	r.ord.Sort(r.idle, func(j *job.Job) (float64, int64) { return -j.InstantaneousXFactor(now), 0 })
	for _, j := range r.idle {
		switch {
		case j.State == job.Suspended:
			if r.env.Resume(j) {
				r.started(j, now)
			}
		case r.env.StartFresh(j):
			r.started(j, now)
		case j.FirstStart < 0:
			r.tryImmediate(j, now)
		}
	}
}

// started moves j, which the pass just launched or committed, from the
// queue to the running list.
func (r *refIS) started(j *job.Job, now int64) {
	r.queue = remove(r.queue, j)
	r.running = append(r.running, j)
	r.markStarted(j, now)
}

// tryImmediate is Sched.tryImmediate over the reference's running list.
func (r *refIS) tryImmediate(j *job.Job, now int64) {
	free := r.env.Cluster.FreeUnclaimed()
	if free >= j.Procs {
		return
	}
	var cands []*job.Job
	for _, v := range r.running {
		if v.State == job.Running && !r.protected(v, now) && r.env.SetIOHealthy(v.ProcSet) {
			cands = append(cands, v)
		}
	}
	r.ord.Sort(cands, func(j *job.Job) (float64, int64) { return j.InstantaneousXFactor(now), 0 })
	var victims []*job.Job
	avail := free
	for _, v := range cands {
		if avail >= j.Procs {
			break
		}
		victims = append(victims, v)
		avail += v.Procs
	}
	if avail < j.Procs {
		return
	}
	claim := r.env.Cluster.ListFreeUnclaimed(j.Procs, nil)
	for _, v := range victims {
		for _, p := range v.ProcSet {
			if len(claim) == j.Procs {
				break
			}
			claim = append(claim, p)
		}
		r.running = remove(r.running, v)
		delete(r.sliceEnd, v.ID)
	}
	r.env.PreemptAndStart(j, victims, claim)
	r.started(j, now)
}

// refHorizon is the quiet-tick horizon as a scan apart from the pass:
// now if a suspended job's set is free, a queued job fits, or the
// narrowest never-run job fits into the free processors plus the
// unprotected, I/O-healthy Running jobs; else the earliest end of a
// protected slice, or never.
func (r *refIS) refHorizon(now int64) int64 {
	c := r.env.Cluster
	free := c.FreeUnclaimed()
	minQueued, minFresh := math.MaxInt, math.MaxInt
	for _, j := range r.queue {
		switch {
		case j.State == job.Suspended:
			if c.SetFree(j.ID, j.ProcSet) {
				return now
			}
		case j.FirstStart < 0:
			minFresh = min(minFresh, j.Procs)
			fallthrough
		default:
			minQueued = min(minQueued, j.Procs)
		}
	}
	if minQueued <= free {
		return now
	}
	if minFresh == math.MaxInt {
		return math.MaxInt64
	}
	h := int64(math.MaxInt64)
	avail := free
	for _, run := range r.running {
		if run.State != job.Running {
			continue
		}
		if end, ok := r.sliceEnd[run.ID]; ok && now < end {
			h = min(h, end)
		} else if r.env.SetIOHealthy(run.ProcSet) {
			avail += run.Procs
		}
	}
	if minFresh <= avail {
		return now
	}
	return h
}

// alwaysIS is Sched with the pass run at every tick, the counterpart
// of refIS.everyTick.
type alwaysIS struct{ *Sched }

func (e alwaysIS) OnTick() {
	now := e.env.Now()
	e.actors(now)
	e.serve(now)
}

// tickLog records the times of the OnTick calls the driver makes.
type tickLog struct {
	sched.Scheduler
	env *sched.Env
	at  []int64
}

func (l *tickLog) Init(env *sched.Env) {
	l.env = env
	l.Scheduler.Init(env)
}

func (l *tickLog) OnTick() {
	l.at = append(l.at, l.env.Now())
	l.Scheduler.OnTick()
}

// compareIS runs tr under IS and under refIS, both with quiet ticks and
// both with the pass at every tick, and fails t unless each pair has
// byte-identical audit logs and calls OnTick at the same times. It
// returns the quiet-tick run of IS.
func compareIS(t testing.TB, tr *workload.Trace, opt sched.Options) *sched.Result {
	t.Helper()
	opt.Audit = true
	run := func(s sched.Scheduler) (*sched.Result, []int64) {
		t.Helper()
		l := &tickLog{Scheduler: s}
		res, err := sched.RunChecked(tr, l, opt)
		if errors.Is(err, sim.ErrMaxSteps) {
			t.Fatalf("run did not finish within %d steps", opt.MaxSteps)
		}
		if err != nil {
			t.Fatalf("RunChecked: %v", err)
		}
		return res, l.at
	}
	var quiet *sched.Result
	for _, every := range []bool{false, true} {
		var s sched.Scheduler = New()
		if every {
			s = alwaysIS{New()}
		}
		got, gotTicks := run(s)
		want, wantTicks := run(&refIS{Sched: New(), everyTick: every})
		if g, w := got.Audit.String(), want.Audit.String(); g != w {
			t.Fatalf("every tick %v: audit logs differ from the reference (%d and %d entries):\n%s",
				every, len(got.Audit.Entries), len(want.Audit.Entries), firstDiff(g, w))
		}
		if len(gotTicks) != len(wantTicks) {
			t.Fatalf("every tick %v: OnTick called %d times, reference %d", every, len(gotTicks), len(wantTicks))
		}
		for i := range gotTicks {
			if gotTicks[i] != wantTicks[i] {
				t.Fatalf("every tick %v: OnTick call %d at %d, reference at %d", every, i, gotTicks[i], wantTicks[i])
			}
		}
		if !every {
			quiet = got
		}
	}
	return quiet
}

// firstDiff returns the first differing line of two renders.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return "one render is a prefix of the other"
}

// refModes are the fault settings of the differential test: none, the
// processor failures of the faults-ns benchmark workload, and transient
// I/O faults with a finite health window, which degrade processors and
// restore them while the run goes on.
var refModes = []struct {
	name      string
	faults    fault.Config
	transient fault.TransientConfig
}{
	{name: "nofault"},
	{name: "fault", faults: fault.Config{MTBF: 500 * 3600, MTTR: 2 * 3600, Seed: 17}},
	{name: "restore", transient: fault.TransientConfig{
		WriteFailProb: 0.3, ReadFailProb: 0.3, Seed: 9,
		HealthWindow: 3600, HealthThreshold: 1,
	}},
}

// TestPassMatchesReference holds IS, whose passes serve only the jobs
// its horizon scan finds able to act, to refIS on loaded SDSC and CTC
// traces under each fault mode, with quiet ticks and with the pass at
// every tick. The cells must reach immediate service by preemption,
// processor failures and I/O restores.
func TestPassMatchesReference(t *testing.T) {
	traces := []*workload.Trace{
		workload.Generate(workload.SDSC(), workload.GenOptions{Jobs: 800, Seed: 3}).ScaleLoad(1.3),
		workload.Generate(workload.CTC(), workload.GenOptions{Jobs: 800, Seed: 1}).ScaleLoad(1.5),
	}
	for _, tr := range traces {
		for _, mode := range refModes {
			t.Run(tr.Name+"/"+mode.name, func(t *testing.T) {
				res := compareIS(t, tr, sched.Options{
					Overhead:  overhead.Disk{},
					MaxSteps:  20_000_000,
					Faults:    mode.faults,
					Transient: mode.transient,
				})
				if res.Suspensions == 0 {
					t.Fatal("no job was suspended; immediate service by preemption is untested")
				}
				if mode.faults.Enabled() && res.Tally.Failures == 0 {
					t.Fatal("no processor failed; failure and repair passes are untested")
				}
				if mode.transient.HealthWindow != 0 && res.IORestores == 0 {
					t.Fatal("no processor was restored to I/O health")
				}
			})
		}
	}
}

// FuzzISPass holds IS to refIS on a small trace decoded from the input,
// optionally under processor failures or transient I/O faults.
//
// The input is a header of two bytes — machine size (1..16) and fault
// setting (bit 0 enables processor failures, bit 1 transient I/O faults
// with a one-hour health window; the rest scales MTBF and suspension
// overhead) — then four bytes per job: submit gap, run time, estimate
// slack and width. At most 48 jobs are decoded. Gaps are multiples of a
// minute and run times of ten, so protected slices often end between
// events.
func FuzzISPass(f *testing.F) {
	f.Add([]byte{4, 0, 0, 30, 0, 4, 12, 2, 0, 4})
	f.Add([]byte{8, 1, 0, 50, 7, 2, 10, 0, 2, 0, 30, 10, 5, 1, 5, 0, 8})
	f.Add([]byte{6, 2, 0, 9, 0, 5, 1, 10, 20, 4, 0, 1, 0, 6, 3, 20, 5, 1})
	f.Add([]byte{16, 0x47, 0, 25, 0, 16, 0, 2, 2, 3, 0, 2, 2, 13, 9, 9, 0, 7, 1, 40, 40, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2+4 {
			return
		}
		procs := 1 + int(data[0]%16)
		faults := data[1]
		opt := sched.Options{Overhead: overhead.Disk{}, MaxSteps: 2_000_000}
		if faults&1 != 0 {
			opt.Faults = fault.Config{MTBF: int64(100+int(faults>>2)) * 3600, MTTR: 3600, Seed: int64(faults)}
		}
		if faults&2 != 0 {
			opt.Transient = fault.TransientConfig{
				WriteFailProb: 0.3, ReadFailProb: 0.3, Seed: int64(faults),
				HealthWindow: 3600, HealthThreshold: 1,
			}
		}
		mem := int64(faults>>6) * 20 * overhead.PaperRateBps // up to 60 s of suspension write
		tr := &workload.Trace{Name: "fuzz", Procs: procs}
		submit := int64(0)
		for b := data[2:]; len(b) >= 4 && len(tr.Jobs) < 48; b = b[4:] {
			submit += int64(b[0]) * 60
			run := int64(1+int(b[1])) * 600
			j := job.New(len(tr.Jobs)+1, submit, run, run+int64(b[2])*60, 1+int(b[3])%procs)
			j.MemPerProc = mem
			tr.Jobs = append(tr.Jobs, j)
		}
		compareIS(t, tr, opt)
	})
}

// remove deletes j from list, keeping the order of the rest; a job not
// in list leaves it unchanged. The reference keeps its own lists and
// this helper rather than reading the driver's.
func remove(list []*job.Job, j *job.Job) []*job.Job {
	if i := slices.Index(list, j); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}
