package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/sched"
	"pjs/internal/sched/fcfs"
	"pjs/internal/workload"
)

// requireMonotoneSamples asserts the sampler invariant that the series
// is strictly increasing in time — coalescing must have merged every
// same-instant burst into one settled row.
func requireMonotoneSamples(t *testing.T, s *Sampler) {
	t.Helper()
	for i := 1; i < len(s.Samples); i++ {
		if s.Samples[i].Time <= s.Samples[i-1].Time {
			t.Fatalf("samples not strictly increasing: sample %d at t=%d after t=%d",
				i, s.Samples[i].Time, s.Samples[i-1].Time)
		}
	}
}

// TestSinksEmptyWhenValidationRejectsRun feeds the sinks to a run that
// never starts: an empty trace fails validation before the engine spins
// up, so the counters must stay zero and the sampler must emit a
// header-only CSV — not a partial or fabricated series.
func TestSinksEmptyWhenValidationRejectsRun(t *testing.T) {
	tr := &workload.Trace{Name: "empty", Procs: 8}
	counters := NewCounters("FCFS", tr.Procs)
	sampler := NewSampler(tr.Procs)
	_, err := sched.RunChecked(tr, fcfs.New(), sched.Options{
		Observer: NewFanOut(counters, sampler),
	})
	if err == nil {
		t.Fatal("empty trace simulated without error")
	}
	if !counters.IsZero() {
		t.Fatalf("counters observed events on a rejected run:\n%s", counters.String())
	}
	var buf bytes.Buffer
	if err := sampler.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1 {
		t.Fatalf("sampler CSV has %d lines on a rejected run, want header only:\n%s",
			lines, buf.String())
	}
}

// TestSinksOnSingleJobRun drives the smallest valid workload — one job,
// no contention — and checks the sinks record exactly the minimal event
// stream: one arrival, one start, one finish, nothing preemptive, and a
// sampled series that opens with the job running and closes drained.
func TestSinksOnSingleJobRun(t *testing.T) {
	tr := &workload.Trace{Name: "single", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 2),
	}}
	counters := NewCounters("FCFS", tr.Procs)
	sampler := NewSampler(tr.Procs)
	res, err := sched.RunChecked(tr, fcfs.New(), sched.Options{
		Observer: NewFanOut(counters, sampler),
	})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if counters.Arrivals != 1 || counters.Starts != 1 || counters.Finishes != 1 {
		t.Fatalf("arrivals=%d starts=%d finishes=%d, want 1/1/1",
			counters.Arrivals, counters.Starts, counters.Finishes)
	}
	if counters.SuspendBegins != 0 || counters.Kills != 0 ||
		counters.BackfillStarts != 0 || counters.PreemptionWaves != 0 {
		t.Fatalf("uncontended single-job run produced preemptive activity:\n%s",
			counters.String())
	}
	requireMonotoneSamples(t, sampler)
	if len(sampler.Samples) < 2 {
		t.Fatalf("sampler recorded %d samples, want at least start and finish instants",
			len(sampler.Samples))
	}
	first, last := sampler.Samples[0], sampler.Samples[len(sampler.Samples)-1]
	if first.Time != 0 || first.Busy != 2 || first.Running != 1 {
		t.Fatalf("first sample %+v, want job running on 2 processors at t=0", first)
	}
	if last.Time != res.Makespan() || last.Busy != 0 || last.Running != 0 || last.Queued != 0 {
		t.Fatalf("last sample %+v, want drained machine at makespan %d", last, res.Makespan())
	}
	var buf bytes.Buffer
	if err := sampler.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(sampler.Samples)+1 {
		t.Fatalf("CSV has %d lines for %d samples", lines, len(sampler.Samples))
	}
}

// TestSinksConsistentWhenAllProcessorsFail aborts a run mid-flight:
// permanent faults (MTTR=0) shrink the machine below the only job's
// width, so the engine surfaces ErrUnfinishable. The sinks hold the
// truthful partial story — the dispatch and the failure kill that
// preceded the abort — with the series still monotone and bounded.
func TestSinksConsistentWhenAllProcessorsFail(t *testing.T) {
	tr := &workload.Trace{Name: "doomed", Procs: 2, Jobs: []*job.Job{
		job.New(1, 0, 1_000_000_000, 1_000_000_000, 2),
	}}
	counters := NewCounters("FCFS", tr.Procs)
	sampler := NewSampler(tr.Procs)
	_, err := sched.RunChecked(tr, fcfs.New(), sched.Options{
		MaxSteps: 1_000_000,
		Observer: NewFanOut(counters, sampler),
		Faults:   fault.Config{MTBF: 100, MTTR: 0, Seed: 1},
	})
	if !errors.Is(err, sched.ErrUnfinishable) {
		t.Fatalf("err = %v, want sched.ErrUnfinishable", err)
	}
	if counters.Starts < 1 {
		t.Fatal("job never started before the machine died")
	}
	if counters.Failures < 1 {
		t.Fatalf("permanent-failure run recorded %d processor failures", counters.Failures)
	}
	if counters.Kills < 1 {
		t.Fatal("failure under a running job recorded no kill")
	}
	if counters.Finishes != 0 {
		t.Fatalf("unfinishable run recorded %d finishes", counters.Finishes)
	}
	requireMonotoneSamples(t, sampler)
	for i, smp := range sampler.Samples {
		if smp.Busy < 0 || smp.Busy > tr.Procs {
			t.Fatalf("sample %d busy=%d outside machine of %d", i, smp.Busy, tr.Procs)
		}
	}
	// The fault block must render — String omits it only when zero.
	if !strings.Contains(counters.String(), "proc-fails=") {
		t.Fatalf("fault counters missing from render:\n%s", counters.String())
	}
}
