package sim

import (
	"math/rand"
	"testing"

	"pjs/internal/job"
)

func newTestJob(id int, submit, run int64) *job.Job {
	return job.New(id, submit, run, run, 1)
}

func BenchmarkHeapPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	// Steady-state churn at depth ~1024.
	for i := 0; i < 1024; i++ {
		h.push(Event{Time: int64(rng.Intn(1 << 20)), seq: int64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		ev.Time += int64(rng.Intn(1024))
		ev.seq = int64(1024 + i)
		h.push(ev)
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	// Serial single-processor engine drive: measures raw event cost.
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		h := &recordingHandler{}
		e := New(h, 0)
		h.eng = e
		for id := 1; id <= 1000; id++ {
			e.AddJob(newTestJob(id, int64(id)*10, 5))
		}
		if _, err := e.Run(); err != nil {
			b.Fatalf("Run: %v", err)
		}
		events += e.Steps()
	}
	if s := b.Elapsed().Seconds(); s > 0 && events > 0 {
		b.ReportMetric(float64(events)/s, "events/s")
	}
}
