package ss

import (
	"slices"
	"testing"

	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// ctcAtLoad returns a CTC trace of n jobs scaled to exactly load times
// the model's nominal offered load, the way the benchmark cells scale.
func ctcAtLoad(n int, seed int64, load float64) *workload.Trace {
	m := workload.CTC()
	t := workload.Generate(m, workload.GenOptions{Jobs: n, Seed: seed})
	return t.ScaleLoad(load * m.OfferedLoad / t.OfferedLoad())
}

// tickAllocs wraps an SS scheduler and, after each real tick that
// committed nothing, measures the allocations of repeating that tick.
// A tick that commits nothing changes no state, so the repeats see the
// same queue, running set and cluster as the real one. Quiet ticks —
// those that only compute the horizon — are measured apart.
type tickAllocs struct {
	*Sched
	measured, withSuspended, withQueued int
	worst                               float64
	quiet                               int
	worstQuiet                          float64
}

func (w *tickAllocs) OnTick() {
	if now := w.env.Now(); w.horizon(now) > now {
		w.quiet++
		w.Sched.OnTick()
		w.worstQuiet = max(w.worstQuiet, testing.AllocsPerRun(5, w.Sched.OnTick))
		return
	}
	queued, running := len(w.env.Idle()), len(w.env.Running())
	w.Sched.OnTick()
	if len(w.env.Idle()) != queued || len(w.env.Running()) != running || queued == 0 {
		return
	}
	w.measured++
	for _, j := range w.env.Idle() {
		if j.State == job.Suspended {
			w.withSuspended++
			break
		}
	}
	for _, j := range w.env.Idle() {
		if j.State == job.Queued && j.Procs > w.env.Cluster.FreeUnclaimed() {
			w.withQueued++
			break
		}
	}
	w.worst = max(w.worst, testing.AllocsPerRun(5, w.Sched.OnTick))
}

// TestTickWithoutCommitAllocatesNothing pins the per-tick scratch reuse:
// once warmed, an SS tick whose preemption routine and schedule pass
// commit nothing allocates 0, and so does a quiet tick, which computes
// the horizon and returns — the common tick on a loaded machine. The
// measured full ticks must include reentry attempts by suspended jobs
// and victim searches for fresh jobs that do not fit.
func TestTickWithoutCommitAllocatesNothing(t *testing.T) {
	w := &tickAllocs{Sched: New(Config{SF: 2})}
	sched.Run(ctcAtLoad(300, 1, 2), w, sched.Options{})
	if w.measured == 0 || w.withSuspended == 0 || w.withQueued == 0 || w.quiet == 0 {
		t.Fatalf("measured %d idle ticks (%d with suspended jobs, %d with blocked fresh jobs) and %d quiet ticks; the trace no longer exercises the tick path",
			w.measured, w.withSuspended, w.withQueued, w.quiet)
	}
	t.Logf("measured %d idle ticks: %d with suspended jobs, %d with blocked fresh jobs; %d quiet ticks", w.measured, w.withSuspended, w.withQueued, w.quiet)
	if w.worst != 0 {
		t.Fatalf("a tick that commits nothing allocated %v times, want 0", w.worst)
	}
	if w.worstQuiet != 0 {
		t.Fatalf("a quiet tick allocated %v times, want 0", w.worstQuiet)
	}
}

// passAllocs wraps an SS scheduler and, after each arrival, completion
// and suspend-done hook that leaves jobs idle, measures the allocations
// of repeating the hook's schedule pass. The hook's own pass left no
// idle job that fits (TestPassMaximal), so the repeat starts nothing
// and changes no state.
type passAllocs struct {
	*Sched
	measured int
	worst    float64
}

func (w *passAllocs) OnArrival(j *job.Job)     { w.Sched.OnArrival(j); w.measure() }
func (w *passAllocs) OnCompletion(j *job.Job)  { w.Sched.OnCompletion(j); w.measure() }
func (w *passAllocs) OnSuspendDone(j *job.Job) { w.Sched.OnSuspendDone(j); w.measure() }

func (w *passAllocs) measure() {
	if len(w.env.Idle()) == 0 {
		return
	}
	w.measured++
	w.worst = max(w.worst, testing.AllocsPerRun(5, w.schedulePass))
}

// TestPassWithoutStartAllocatesNothing pins the event pass's scratch
// reuse: once warmed, a schedule pass that starts nothing — the common
// one on a loaded machine, run at nearly every arrival, completion and
// suspend-done — allocates 0.
func TestPassWithoutStartAllocatesNothing(t *testing.T) {
	w := &passAllocs{Sched: New(Config{SF: 2})}
	sched.Run(ctcAtLoad(300, 1, 2), w, sched.Options{})
	if w.measured == 0 {
		t.Fatal("no hook left a job idle; the trace no longer exercises the pass")
	}
	t.Logf("measured %d passes", w.measured)
	if w.worst != 0 {
		t.Fatalf("a schedule pass that starts nothing allocated %v times, want 0", w.worst)
	}
}

// cycleAllocs wraps an SS scheduler and, after each suspend-done hook
// that leaves the job suspended and idle beside other idle jobs,
// measures the allocations of the kept quiet-tick state's part of a
// resume and suspend-done cycle of that job: the drop of its reentry
// need, which unlinks it from the cover index and the heap, as a resume
// or a commit drops it, a horizon, then the entry a suspend-done makes
// and a horizon, which adds the need back. The job itself stays
// suspended, so the run goes on unchanged.
type cycleAllocs struct {
	*Sched
	measured int
	dropped  bool
	worst    float64
}

func (w *cycleAllocs) OnSuspendDone(j *job.Job) {
	w.Sched.OnSuspendDone(j)
	if j.State != job.Suspended || !slices.Contains(w.env.Idle(), j) || len(w.env.Idle()) < 2 {
		return
	}
	now := w.env.Now()
	w.horizon(now) // j's need now exists
	cycle := func() {
		w.hz.dropNeed(j) // resumed
		w.horizon(now)
		w.dropped = w.dropped || w.hz.find(j) < 0
		w.enteredIdle(j) // suspended again
		w.horizon(now)
	}
	w.measured++
	w.worst = max(w.worst, testing.AllocsPerRun(5, cycle))
	if w.hz.find(j) < 0 {
		panic("the cycle lost the job's reentry need")
	}
}

// TestSuspendResumeCycleAllocatesNothing pins the storage reuse of the
// kept reentry needs: once warmed, a suspended job's resume and next
// suspend-done allocate nothing in the horizon, so a need and its cover
// links come from storage that an earlier need freed.
func TestSuspendResumeCycleAllocatesNothing(t *testing.T) {
	w := &cycleAllocs{Sched: New(Config{SF: 2})}
	sched.Run(ctcAtLoad(300, 1, 2), w, sched.Options{})
	if w.measured == 0 || !w.dropped {
		t.Fatalf("measured %d cycles (need dropped: %v); the trace no longer exercises the cycle", w.measured, w.dropped)
	}
	t.Logf("measured %d cycles", w.measured)
	if w.worst != 0 {
		t.Fatalf("a suspend-done and resume cycle allocated %v times, want 0", w.worst)
	}
}

// tickCount counts the OnTick calls the driver makes and, as an
// observer, the tick heartbeats it records.
type tickCount struct {
	*Sched
	calls, heartbeats int
}

func (c *tickCount) OnTick() {
	c.calls++
	c.Sched.OnTick()
}

func (c *tickCount) Observe(ev sched.Event) {
	if ev.Action == sched.ActTick {
		c.heartbeats++
	}
}

// TestQuietTicksSkipMost pins how tight the quiet-tick horizon is: on a
// preempt-ctc-shaped run, the driver calls the SS tick routine on at
// most a quarter of the ticks. A horizon that only compared SF times
// the smallest running xfactor with the idle xfactors let about half of
// them through, because most ticks fail on width coverage or the
// half-width rule rather than on the SF ratio.
func TestQuietTicksSkipMost(t *testing.T) {
	c := &tickCount{Sched: New(Config{SF: 2})}
	sched.Run(ctcAtLoad(1000, 1, 2), c, sched.Options{Observer: c})
	if c.heartbeats == 0 {
		t.Fatal("the run recorded no tick")
	}
	frac := float64(c.calls) / float64(c.heartbeats)
	t.Logf("OnTick called on %d of %d ticks (%.1f%%)", c.calls, c.heartbeats, 100*frac)
	if frac > 0.25 {
		t.Errorf("OnTick called on %d of %d ticks (%.1f%%), want at most 25%%", c.calls, c.heartbeats, 100*frac)
	}
}

// BenchmarkRunSS2CTC mirrors one preempt-ctc benchmark cell — a
// 1000-job CTC trace scaled to load 2 under SS with SF 2 — for quick
// iteration on the tick path without the full suite.
func BenchmarkRunSS2CTC(b *testing.B) {
	tr := ctcAtLoad(1000, 1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		events += sched.Run(tr, New(Config{SF: 2}), sched.Options{}).Events
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/s")
	}
}

// BenchmarkRunTSS2CTCDisk is BenchmarkRunSS2CTC under the single-pass
// TSS with the disk overhead model: each completion feeds the adaptive
// limits, which may change which running jobs are suspendable, and
// each resume reads its image back, during which its xfactor grows.
// These are the two paths on which the kept horizon state re-values
// running jobs; no pjsperf workload runs either.
func BenchmarkRunTSS2CTCDisk(b *testing.B) {
	tr := ctcAtLoad(1000, 1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		cfg := Config{SF: 2, Limits: &AdaptiveLimits{}}
		events += sched.Run(tr, New(cfg), sched.Options{Overhead: overhead.Disk{}}).Events
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/s")
	}
}
