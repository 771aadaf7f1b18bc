package conservative_test

import (
	"testing"

	"pjs/internal/job"
	"pjs/internal/sched"
	"pjs/internal/sched/conservative"
	"pjs/internal/workload"
)

func run(t *testing.T, tr *workload.Trace) map[int]*job.Job {
	t.Helper()
	res := sched.Run(tr, conservative.New(), sched.Options{MaxSteps: 1_000_000})
	byID := map[int]*job.Job{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	return byID
}

// The Figure 1 situation: the third queued job could start now but would
// delay the second queued job, so conservative refuses.
func TestNoDelayOfAnyQueuedJob(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 2),  // runs now, 2 free remain
		job.New(2, 10, 100, 100, 4), // reserved at 100
		job.New(3, 15, 100, 100, 4), // reserved at 200
		job.New(4, 20, 300, 300, 2), // fits now, but would delay job 2/3
	}}
	byID := run(t, tr)
	if byID[2].FirstStart != 100 {
		t.Errorf("job2 start = %d, want 100", byID[2].FirstStart)
	}
	if byID[3].FirstStart != 200 {
		t.Errorf("job3 start = %d, want 200", byID[3].FirstStart)
	}
	// Job 4 on 2 procs for 300s starting at 20 would occupy [20,320)
	// and block the 4-wide reservations: anchored at 300 instead.
	if byID[4].FirstStart != 300 {
		t.Errorf("job4 start = %d, want 300", byID[4].FirstStart)
	}
}

func TestBackfillIntoHole(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 3),
		job.New(2, 10, 200, 200, 4), // reserved at 100
		job.New(3, 20, 50, 80, 1),   // hole [20,100) on 1 proc fits est 80
	}}
	byID := run(t, tr)
	if byID[3].FirstStart != 20 {
		t.Errorf("job3 start = %d, want 20", byID[3].FirstStart)
	}
}

// Early termination compresses the schedule in reservation order.
func TestCompressionOnEarlyTermination(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 40, 100, 4), // estimated 100, ends at 40
		job.New(2, 10, 50, 50, 4), // reserved at 100, pulled to 40
		job.New(3, 20, 50, 50, 4), // reserved at 150, pulled to 90
	}}
	byID := run(t, tr)
	if byID[2].FirstStart != 40 {
		t.Errorf("job2 start = %d, want 40", byID[2].FirstStart)
	}
	if byID[3].FirstStart != 90 {
		t.Errorf("job3 start = %d, want 90", byID[3].FirstStart)
	}
}

// Compression must never push a job later than its original guarantee.
func TestCompressionNeverWorsensGuarantees(t *testing.T) {
	m := workload.SDSC()
	m.Procs = 32
	tr := workload.Generate(m, workload.GenOptions{
		Jobs: 300, Seed: 11, Estimates: workload.EstimateInaccurate,
	})
	// With inaccurate estimates there is a lot of compression churn;
	// every job must still finish (Run panics otherwise) and no job may
	// start before submission.
	byID := run(t, tr)
	for _, j := range byID {
		if j.FirstStart < j.SubmitTime {
			t.Fatalf("job %d started before submission", j.ID)
		}
	}
}

func TestReservationsDrainToZero(t *testing.T) {
	s := conservative.New()
	tr := &workload.Trace{Name: "t", Procs: 2, Jobs: []*job.Job{
		job.New(1, 0, 10, 10, 2),
		job.New(2, 1, 10, 10, 2),
		job.New(3, 2, 10, 10, 2),
	}}
	sched.Run(tr, s, sched.Options{MaxSteps: 1_000_000})
	if n := conservative.Reservations(s); n != 0 {
		t.Errorf("reservations left = %d, want 0", n)
	}
}
