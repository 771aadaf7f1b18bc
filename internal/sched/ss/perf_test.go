package ss

import (
	"testing"

	"pjs/internal/job"
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
// same queue, running set and cluster as the real one.
type tickAllocs struct {
	*Sched
	measured, withSuspended, withQueued int
	worst                               float64
}

func (w *tickAllocs) OnTick() {
	queued, running := len(w.queue), len(w.running)
	w.Sched.OnTick()
	if len(w.queue) != queued || len(w.running) != running || queued == 0 {
		return
	}
	w.measured++
	for _, j := range w.queue {
		if j.State == job.Suspended {
			w.withSuspended++
			break
		}
	}
	for _, j := range w.queue {
		if j.State == job.Queued && j.Procs > w.env.Cluster.FreeUnclaimed() {
			w.withQueued++
			break
		}
	}
	w.worst = max(w.worst, testing.AllocsPerRun(5, w.Sched.OnTick))
}

// TestTickWithoutCommitAllocatesNothing pins the per-tick scratch reuse:
// once warmed, an SS tick whose preemption routine and schedule pass
// commit nothing — the common tick on a loaded machine — allocates 0.
// The measured ticks must include reentry attempts by suspended jobs and
// victim searches for fresh jobs that do not fit.
func TestTickWithoutCommitAllocatesNothing(t *testing.T) {
	w := &tickAllocs{Sched: New(Config{SF: 2})}
	sched.Run(ctcAtLoad(300, 1, 2), w, sched.Options{})
	if w.measured == 0 || w.withSuspended == 0 || w.withQueued == 0 {
		t.Fatalf("measured %d idle ticks (%d with suspended jobs, %d with blocked fresh jobs); the trace no longer exercises the tick path",
			w.measured, w.withSuspended, w.withQueued)
	}
	t.Logf("measured %d idle ticks: %d with suspended jobs, %d with blocked fresh jobs", w.measured, w.withSuspended, w.withQueued)
	if w.worst != 0 {
		t.Fatalf("a tick that commits nothing allocated %v times, want 0", w.worst)
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
