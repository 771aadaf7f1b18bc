package gang_test

import (
	"testing"

	"pjs/internal/check"
	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/sched/gang"
	"pjs/internal/workload"
)

func run(t *testing.T, tr *workload.Trace, q int64) (map[int]*job.Job, *sched.Result) {
	t.Helper()
	res := sched.Run(tr, gang.New(gang.Config{Quantum: q}), sched.Options{
		Audit: true, MaxSteps: 5_000_000,
	})
	byID := map[int]*job.Job{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	return byID, res
}

func TestSingleRowRunsToCompletion(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 1000, 1000, 2),
		job.New(2, 0, 500, 500, 2),
	}}
	byID, res := run(t, tr, 600)
	// Both fit one row: no time slicing at all.
	if res.Suspensions != 0 {
		t.Errorf("suspensions = %d, want 0 for a single row", res.Suspensions)
	}
	if byID[1].FinishTime != 1000 || byID[2].FinishTime != 500 {
		t.Errorf("finish = %d,%d want 1000,500", byID[1].FinishTime, byID[2].FinishTime)
	}
}

func TestTwoRowsTimeSlice(t *testing.T) {
	// Two machine-wide jobs: they must alternate every quantum.
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 1200, 1200, 4),
		job.New(2, 0, 1200, 1200, 4),
	}}
	byID, res := run(t, tr, 600)
	if res.Suspensions < 2 {
		t.Errorf("suspensions = %d, want alternation", res.Suspensions)
	}
	// Round-robin: j1 runs [0,600) and [1200,1800); j2 runs [600,1200)
	// and [1800,2400). Gang's point is the early share for job 2, not
	// a shorter makespan.
	if byID[2].FirstStart != 600 {
		t.Errorf("job2 start = %d, want 600 (first quantum share)", byID[2].FirstStart)
	}
	if byID[1].FinishTime != 1800 {
		t.Errorf("job1 finish = %d, want 1800", byID[1].FinishTime)
	}
	if byID[2].FinishTime != 2400 {
		t.Errorf("job2 finish = %d, want 2400", byID[2].FinishTime)
	}
	if err := check.Check(res.Audit, check.Options{ZeroOverhead: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRowPacking(t *testing.T) {
	// Four 2-proc jobs on a 4-proc machine: two rows of two.
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 3000, 3000, 2),
		job.New(2, 0, 3000, 3000, 2),
		job.New(3, 0, 3000, 3000, 2),
		job.New(4, 0, 3000, 3000, 2),
	}}
	byID, res := run(t, tr, 600)
	// Jobs 1-2 share row 0, jobs 3-4 row 1; they alternate.
	if byID[3].FirstStart != 600 {
		t.Errorf("job3 start = %d, want 600 (second row's first quantum)", byID[3].FirstStart)
	}
	for id := 1; id <= 4; id++ {
		if byID[id].State != job.Finished {
			t.Fatalf("job %d unfinished", id)
		}
	}
	if err := check.Check(res.Audit, check.Options{ZeroOverhead: true}); err != nil {
		t.Fatal(err)
	}
}

func TestEarlyRotationWhenRowDrains(t *testing.T) {
	// Row 0's only job finishes mid-quantum: row 1 should take over
	// immediately instead of idling until the next tick.
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 4), // finishes at 100, well inside Q=600
		job.New(2, 0, 100, 100, 4),
	}}
	byID, _ := run(t, tr, 600)
	if byID[2].FirstStart != 100 {
		t.Errorf("job2 start = %d, want 100 (early rotation)", byID[2].FirstStart)
	}
}

func TestLocalRestartAcrossRotations(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 2000, 2000, 3),
		job.New(2, 0, 2000, 2000, 3),
	}}
	_, res := run(t, tr, 300)
	if res.Suspensions < 4 {
		t.Fatalf("suspensions = %d, want several rotations", res.Suspensions)
	}
	// check.Check enforces that every resume used the identical set.
	if err := check.Check(res.Audit, check.Options{ZeroOverhead: true}); err != nil {
		t.Fatal(err)
	}
}

func TestGangWithOverheadStillCorrect(t *testing.T) {
	m := workload.SDSC()
	m.Procs = 32
	tr := workload.Generate(m, workload.GenOptions{Jobs: 150, Seed: 4})
	res := sched.Run(tr, gang.New(gang.Config{Quantum: 600}), sched.Options{
		Audit: true, Overhead: overhead.Disk{}, MaxSteps: 10_000_000,
	})
	if err := check.Check(res.Audit, check.Options{}); err != nil {
		t.Fatal(err)
	}
	if res.Suspensions == 0 {
		t.Error("expected rotations on a loaded trace")
	}
}

func TestGangRandomizedInvariants(t *testing.T) {
	m := workload.SDSC()
	m.Procs = 64
	for seed := int64(1); seed <= 4; seed++ {
		tr := workload.Generate(m, workload.GenOptions{Jobs: 250, Seed: seed})
		res := sched.Run(tr, gang.New(gang.Config{}), sched.Options{
			Audit: true, MaxSteps: 10_000_000,
		})
		if err := check.Check(res.Audit, check.Options{ZeroOverhead: true}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestLateArrivalJoinsExistingRow(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 5000, 5000, 2),
		job.New(2, 50, 5000, 5000, 2), // fits row 0: starts immediately
	}}
	byID, res := run(t, tr, 600)
	if byID[2].FirstStart != 50 {
		t.Errorf("job2 start = %d, want 50 (joined the active row)", byID[2].FirstStart)
	}
	if res.Suspensions != 0 {
		t.Errorf("suspensions = %d, want 0", res.Suspensions)
	}
}

func TestName(t *testing.T) {
	if got := gang.New(gang.Config{}).Name(); got != "Gang(Q=600s)" {
		t.Errorf("Name = %q", got)
	}
	if got := gang.New(gang.Config{Quantum: 300}).Name(); got != "Gang(Q=300s)" {
		t.Errorf("Name = %q", got)
	}
}

// TestLoneRowRelaunchesSuspendedJob pins the one-row strand. A job on
// I/O-degraded processors keeps running through its row's rotation; it
// then completes while the next rotation drains the other row, and its
// row, the drain's target, is removed. The drained row is left alone
// with Suspended jobs that no hook resumes, so before rotate relaunched
// a lone row the run only ticked until MaxSteps. This SDSC trace and
// transient-I/O stream hit that state at t = 91,938 s.
func TestLoneRowRelaunchesSuspendedJob(t *testing.T) {
	tr := workload.Generate(workload.SDSC(), workload.GenOptions{Jobs: 80, Seed: 4})
	res, err := sched.RunChecked(tr, gang.New(gang.Config{}), sched.Options{
		Audit:    true,
		Overhead: overhead.Disk{},
		Transient: fault.TransientConfig{
			WriteFailProb: 0.05, ReadFailProb: 0.05, Seed: 1,
			HealthWindow: 1 << 40, HealthThreshold: 1,
		},
		MaxSteps: 1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Makespan(); got != 120875 {
		t.Errorf("makespan = %d, want 120875", got)
	}
	if err := check.Check(res.Audit, check.Options{}); err != nil {
		t.Fatal(err)
	}
}
