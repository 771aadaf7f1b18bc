package easy

import (
	"math/bits"
	"runtime"
	"testing"

	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// loadedCTC is a 1500-job CTC trace at twice its nominal load, so that
// queues build up behind heads that do not fit.
func loadedCTC() *workload.Trace {
	return workload.Generate(workload.CTC(), workload.GenOptions{Jobs: 1500, Seed: 1}).ScaleLoad(2)
}

// TestPassMaximal runs NS without faults, under the processor failures
// of the faults-ns benchmark workload, and under the SS tests' transient
// I/O faults with a finite health window (which stay silent, as NS never
// suspends), and checks after every hook that the queue holds no job
// that could start (checked.checkMaximal).
func TestPassMaximal(t *testing.T) {
	tr := loadedCTC()
	modes := []struct {
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
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			c := &checked{Sched: New(), t: t}
			res, err := sched.RunChecked(tr, c, sched.Options{
				Overhead:  overhead.Disk{},
				MaxSteps:  10_000_000,
				Faults:    mode.faults,
				Transient: mode.transient,
			})
			if err != nil {
				t.Fatalf("RunChecked: %v", err)
			}
			if mode.faults.Enabled() && res.FailKills == 0 {
				t.Fatal("no failure killed a running job; failure passes are untested")
			}
			t.Logf("%d hooks checked", c.hooks)
		})
	}
}

// arrivalAllocs wraps the policy and, after each arrival that leaves the
// arriving job queued behind the head, measures the allocations of
// repeating that arrival: the job is still in the driver's queue, where
// the driver put it before the hook, so delivering it again meets the
// same state.
type arrivalAllocs struct {
	*Sched
	measured, withFree int
	worst              float64
}

func (w *arrivalAllocs) OnArrival(j *job.Job) {
	w.Sched.OnArrival(j)
	if j.State != job.Queued || w.env.Idle()[0] == j {
		return
	}
	w.measured++
	if j.Procs <= w.env.Cluster.FreeUnclaimed() {
		w.withFree++
	}
	w.worst = max(w.worst, testing.AllocsPerRun(5, func() {
		w.Sched.OnArrival(j)
	}))
}

// TestArrivalWithoutBackfillAllocatesNothing pins that an arrival that
// cannot backfill — most arrivals on a loaded machine — allocates 0,
// including those that fit in the free processors and so compute the
// head's reservation.
func TestArrivalWithoutBackfillAllocatesNothing(t *testing.T) {
	w := &arrivalAllocs{Sched: New()}
	sched.Run(loadedCTC(), w, sched.Options{})
	if w.measured == 0 || w.withFree == 0 {
		t.Fatalf("measured %d arrivals, %d of them with enough free processors; the trace no longer exercises the arrival test",
			w.measured, w.withFree)
	}
	t.Logf("measured %d arrivals, %d with enough free processors", w.measured, w.withFree)
	if w.worst != 0 {
		t.Fatalf("an arrival that cannot backfill allocated %v times, want 0", w.worst)
	}
}

// queueGrowth wraps the policy and counts how often the backing array
// of the driver's queue grew, looking at it when each hook is entered
// (the driver inserts arrivals and displaced jobs before the hook) and
// when it returns. The driver grows its widths array in step with it.
type queueGrowth struct {
	*Sched
	cap, peak, grows int
}

func (g *queueGrowth) OnArrival(j *job.Job)    { g.hook(func() { g.Sched.OnArrival(j) }) }
func (g *queueGrowth) OnCompletion(j *job.Job) { g.hook(func() { g.Sched.OnCompletion(j) }) }
func (g *queueGrowth) OnRepair(p int)          { g.hook(func() { g.Sched.OnRepair(p) }) }
func (g *queueGrowth) OnFailure(p int, requeued []*job.Job) {
	g.hook(func() { g.Sched.OnFailure(p, requeued) })
}

func (g *queueGrowth) hook(call func()) {
	g.look()
	call()
	g.look()
}

func (g *queueGrowth) look() {
	if c := cap(g.env.Idle()); c != g.cap {
		g.cap = c
		g.grows++
	}
	g.peak = max(g.peak, len(g.env.Idle()))
}

// TestQueueKeepsCapacity pins that started jobs leave the driver's
// queue in place: on a loaded 10k-job CTC run, with and without processor
// failures, the queue reallocates only as its length reaches new
// peaks, a number of times logarithmic in the peak length, not every
// time it drains and refills.
func TestQueueKeepsCapacity(t *testing.T) {
	tr := workload.Generate(workload.CTC(), workload.GenOptions{Jobs: 10000, Seed: 1}).ScaleLoad(1.5)
	for _, faults := range []fault.Config{{}, {MTBF: 500 * 3600, MTTR: 2 * 3600, Seed: 17}} {
		g := &queueGrowth{Sched: New()}
		sched.Run(tr, g, sched.Options{Faults: faults})
		if limit := 2 * bits.Len(uint(g.peak)); g.grows > limit {
			t.Errorf("faults %v: the queue grew its backing array after %d hooks, want at most %d for a peak length of %d",
				faults.Enabled(), g.grows, limit, g.peak)
		}
		t.Logf("faults %v: %d growths, peak length %d", faults.Enabled(), g.grows, g.peak)
	}
}

// startAllocs wraps the policy and counts the allocations of each
// arrival and completion hook whose pass starts jobs. A hook that lifts
// the number of running jobs to a new peak is left out: the running
// list, the engine's event heap (one completion per running job under
// NS) and the policy's release list grow their backing arrays then.
type startAllocs struct {
	*Sched
	ms              runtime.MemStats
	idle            []*job.Job
	peak            int
	measured, peaks int
	worst           uint64
}

func (w *startAllocs) OnArrival(j *job.Job)    { w.measure(func() { w.Sched.OnArrival(j) }) }
func (w *startAllocs) OnCompletion(j *job.Job) { w.measure(func() { w.Sched.OnCompletion(j) }) }

func (w *startAllocs) measure(call func()) {
	w.idle = append(w.idle[:0], w.env.Idle()...)
	runtime.ReadMemStats(&w.ms)
	before := w.ms.Mallocs
	call()
	runtime.ReadMemStats(&w.ms)
	allocs := w.ms.Mallocs - before
	started := 0
	for _, j := range w.idle {
		if j.State == job.Running {
			started++
		}
	}
	if n := len(w.env.Running()); n > w.peak {
		w.peak = n
		w.peaks++
		return
	}
	if started > 0 {
		w.measured++
		w.worst = max(w.worst, allocs)
	}
}

// TestStartingPassAllocatesNothing pins that a pass that starts jobs
// allocates 0: each start writes the job's processors into the region
// the run gave it, and the driver's lists keep their capacity.
func TestStartingPassAllocatesNothing(t *testing.T) {
	w := &startAllocs{Sched: New()}
	// As in testing.AllocsPerRun, one P: the stop-the-world of
	// ReadMemStats could otherwise start an OS thread for an idle P, and
	// the process-wide count would charge its allocations to the hook.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sched.Run(loadedCTC(), w, sched.Options{})
	if w.measured < 100 {
		t.Fatalf("measured %d hooks that started jobs; the trace no longer exercises starts", w.measured)
	}
	t.Logf("measured %d hooks that started jobs, skipped %d that set a new peak of running jobs", w.measured, w.peaks)
	if w.worst != 0 {
		t.Fatalf("a pass that started jobs allocated %d times, want 0", w.worst)
	}
}
