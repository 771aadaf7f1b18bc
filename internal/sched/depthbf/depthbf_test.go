package depthbf_test

import (
	"testing"

	"pjs/internal/check"
	"pjs/internal/job"
	"pjs/internal/sched"
	"pjs/internal/sched/depthbf"
	"pjs/internal/sched/easy"
	"pjs/internal/workload"
)

func run(t *testing.T, tr *workload.Trace, depth int) map[int]*job.Job {
	t.Helper()
	res := sched.Run(tr, depthbf.New(depth), sched.Options{MaxSteps: 2_000_000})
	byID := map[int]*job.Job{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	return byID
}

// Depth 1 reproduces the EASY scenario of Figure 2: a short job
// backfills past a blocked wide head.
func TestDepthOneBehavesLikeEASY(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 3),
		job.New(2, 10, 200, 200, 4), // head, reserved at 100
		job.New(3, 20, 50, 50, 1),   // fits the hole
		job.New(4, 25, 200, 200, 1), // would delay the head? no — but 0 extra
	}}
	byID := run(t, tr, 1)
	if byID[3].FirstStart != 20 {
		t.Errorf("job3 start = %d, want 20", byID[3].FirstStart)
	}
	if byID[2].FirstStart != 100 {
		t.Errorf("job2 start = %d, want 100 (reservation held)", byID[2].FirstStart)
	}
}

// Depth 2 protects the SECOND queued job too: a backfill legal under
// EASY (it does not delay the head) is refused when it would push job
// 3's reservation back.
//
// Machine of 6: j1 runs [0,100)×4. Head j2 (4 procs) reserves at 100;
// j3 (6 procs) reserves at 200. Candidate j4 (2 procs, 300 s) leaves
// j2's anchor at 100 but would push j3 from 200 to 320.
func TestDeeperDepthProtectsMoreJobs(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 6, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 4),
		job.New(2, 10, 100, 100, 4),
		job.New(3, 15, 100, 100, 6),
		job.New(4, 20, 300, 300, 2),
	}}
	byID := run(t, tr, 1)
	if byID[4].FirstStart != 20 {
		t.Errorf("depth 1: job4 start = %d, want 20 (only the head is protected)", byID[4].FirstStart)
	}
	if byID[2].FirstStart != 100 {
		t.Errorf("depth 1: head start = %d, want 100", byID[2].FirstStart)
	}
	if byID[3].FirstStart != 320 {
		t.Errorf("depth 1: job3 start = %d, want 320 (delayed by the backfill)", byID[3].FirstStart)
	}

	byID = run(t, tr, 2)
	if byID[4].FirstStart != 300 {
		t.Errorf("depth 2: job4 start = %d, want 300 (refused until after job3)", byID[4].FirstStart)
	}
	if byID[3].FirstStart != 200 {
		t.Errorf("depth 2: job3 start = %d, want 200 (reservation protected)", byID[3].FirstStart)
	}
}

// Exactness cross-validation: depth-1 and EASY produce identical
// schedules on random workloads (both implement "never delay the head"
// exactly, under estimate-based projections).
func TestDepthOneMatchesEASYOnRandomTraces(t *testing.T) {
	m := workload.SDSC()
	m.Procs = 48
	for seed := int64(1); seed <= 5; seed++ {
		tr := workload.Generate(m, workload.GenOptions{
			Jobs: 300, Seed: seed, Estimates: workload.EstimateInaccurate,
		})
		a := sched.Run(tr, depthbf.New(1), sched.Options{MaxSteps: 10_000_000})
		b := sched.Run(tr, easy.New(), sched.Options{MaxSteps: 10_000_000})
		for i := range a.Jobs {
			if a.Jobs[i].FinishTime != b.Jobs[i].FinishTime {
				t.Fatalf("seed %d: job %d finishes %d (depth-1) vs %d (EASY)",
					seed, a.Jobs[i].ID, a.Jobs[i].FinishTime, b.Jobs[i].FinishTime)
			}
		}
	}
}

func TestDepthInvariants(t *testing.T) {
	m := workload.SDSC()
	m.Procs = 48
	tr := workload.Generate(m, workload.GenOptions{Jobs: 300, Seed: 8})
	for _, depth := range []int{1, 2, 4, 16} {
		res := sched.Run(tr, depthbf.New(depth), sched.Options{Audit: true, MaxSteps: 10_000_000})
		if err := check.Check(res.Audit, check.Options{ZeroOverhead: true}); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if res.Suspensions != 0 {
			t.Fatalf("depth %d: non-preemptive policy suspended", depth)
		}
	}
}

func TestNameAndDepth(t *testing.T) {
	if got := depthbf.New(4).Name(); got != "DepthBF(4)" {
		t.Errorf("Name=%q, want DepthBF(4)", got)
	}
	if got := depthbf.New(0).Name(); got != "DepthBF(1)" {
		t.Errorf("Name=%q: depth floors at 1", got)
	}
}
