package ss_test

import (
	"testing"

	"pjs/internal/check"
	"pjs/internal/job"
	"pjs/internal/metrics"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/sched/easy"
	"pjs/internal/sched/ss"
	"pjs/internal/workload"
)

func run(t *testing.T, tr *workload.Trace, cfg ss.Config) map[int]*job.Job {
	t.Helper()
	res := sched.Run(tr, ss.New(cfg), sched.Options{MaxSteps: 2_000_000})
	byID := map[int]*job.Job{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	return byID
}

// The paper's motivating example: a short job preempts a long-running
// job once its xfactor is SF times the runner's. With SF=2 and a
// 100 s-estimate job submitted at t=100, the threshold falls at t=200;
// the minute tick fires the preemption at t=240.
func TestBasicSelectiveSuspension(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 10000, 10000, 4),
		job.New(2, 100, 100, 100, 4),
	}}
	byID := run(t, tr, ss.Config{SF: 2})
	if byID[2].FirstStart != 240 {
		t.Errorf("job2 start = %d, want 240", byID[2].FirstStart)
	}
	if byID[2].FinishTime != 340 {
		t.Errorf("job2 finish = %d, want 340", byID[2].FinishTime)
	}
	if byID[1].Suspensions != 1 {
		t.Errorf("job1 suspensions = %d, want 1", byID[1].Suspensions)
	}
	// j1: ran 240, suspended 100 s, resumes at 340.
	if byID[1].FinishTime != 10100 {
		t.Errorf("job1 finish = %d, want 10100", byID[1].FinishTime)
	}
}

// A higher suspension factor delays preemption (Section IV-D: "for the
// VS and S length categories, a lower SF results in lowered slowdown").
func TestSuspensionFactorDelaysPreemption(t *testing.T) {
	mk := func() *workload.Trace {
		return &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
			job.New(1, 0, 10000, 10000, 4),
			job.New(2, 100, 100, 100, 4),
		}}
	}
	byID := run(t, mk(), ss.Config{SF: 5})
	// xfactor(t) = (t-100+100)/100 ≥ 5 → t ≥ 500 → tick at 540.
	if byID[2].FirstStart != 540 {
		t.Errorf("job2 start = %d, want 540 under SF=5", byID[2].FirstStart)
	}
	byID = run(t, mk(), ss.Config{SF: 1.5})
	// threshold t ≥ 150 → tick at 180.
	if byID[2].FirstStart != 180 {
		t.Errorf("job2 start = %d, want 180 under SF=1.5", byID[2].FirstStart)
	}
}

// The half-width rule: a narrow job must not suspend a job more than
// twice its width (Section IV-B).
func TestHalfWidthRuleProtectsWideJobs(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 8, Jobs: []*job.Job{
		job.New(1, 0, 3000, 3000, 8),
		job.New(2, 10, 100, 100, 2), // 8 > 2×2: may not preempt
	}}
	byID := run(t, tr, ss.Config{SF: 2})
	if byID[2].FirstStart != 3000 {
		t.Errorf("job2 start = %d, want 3000 (blocked by half-width rule)", byID[2].FirstStart)
	}
	// Disabling the rule lets the narrow job preempt.
	byID = run(t, tr, ss.Config{SF: 2, DisableHalfWidthRule: true})
	if byID[2].FirstStart >= 3000 {
		t.Errorf("job2 start = %d, want preemptive start", byID[2].FirstStart)
	}
}

// Multiple victims: a wide idle job suspends several narrow runners,
// largest width first.
func TestMultiVictimPreemption(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 30000, 30000, 2),
		job.New(2, 0, 30000, 30000, 1),
		job.New(3, 0, 30000, 30000, 1),
		job.New(4, 50, 200, 200, 4),
	}}
	byID := run(t, tr, ss.Config{SF: 2})
	// xf4(t) = (t-50+200)/200 ≥ 2 → t ≥ 250 → tick 300.
	if byID[4].FirstStart != 300 {
		t.Errorf("job4 start = %d, want 300", byID[4].FirstStart)
	}
	total := byID[1].Suspensions + byID[2].Suspensions + byID[3].Suspensions
	if total != 3 {
		t.Errorf("victim suspensions = %d, want 3 (all runners)", total)
	}
}

// TSS: a victim whose xfactor exceeds its category limit is protected.
func TestTSSLimitDisablesPreemption(t *testing.T) {
	var limits ss.StaticLimits
	// Job 1's estimate is 10000 s (Long) on 4 procs (Narrow). Any
	// xfactor above 0.5 — i.e. always — disables its preemption.
	limits[job.Category{Length: job.Long, Width: job.Narrow}.Index()] = 0.5
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 10000, 10000, 4),
		job.New(2, 100, 100, 100, 4),
	}}
	byID := run(t, tr, ss.Config{SF: 2, Limits: &limits})
	if byID[1].Suspensions != 0 {
		t.Errorf("job1 suspensions = %d, want 0 (TSS protection)", byID[1].Suspensions)
	}
	if byID[2].FirstStart != 10000 {
		t.Errorf("job2 start = %d, want 10000", byID[2].FirstStart)
	}
}

// Suspension overhead: the victim's processors are held during the
// write, so the preemptor starts only after it completes; the restart
// read delays the victim's completion further.
func TestOverheadDelaysHandoffAndResume(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 10000, 10000, 4),
		job.New(2, 100, 100, 100, 4),
	}}
	for _, j := range tr.Jobs {
		j.MemPerProc = 100 << 20 // 100 MB → 50 s at 2 MB/s
	}
	res := sched.Run(tr, ss.New(ss.Config{SF: 2}), sched.Options{
		Overhead: overhead.Disk{}, Audit: true, MaxSteps: 2_000_000,
	})
	byID := map[int]*job.Job{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	// Preemption decision at 240, write until 290, j2 runs 290-390.
	if byID[2].FirstStart != 290 {
		t.Errorf("job2 start = %d, want 290 (50 s write)", byID[2].FirstStart)
	}
	// j1 computed 240 s, resumes at 390 plus a 50 s read: finish
	// 390 + 50 + 9760 = 10200.
	if byID[1].FinishTime != 10200 {
		t.Errorf("job1 finish = %d, want 10200", byID[1].FinishTime)
	}
	if err := check.Check(res.Audit, check.Options{}); err != nil {
		t.Error(err)
	}
}

// A suspended job reenters by preempting the current holder of its
// processor set once the SF condition allows (suspend_jobs_2; the
// half-width rule is waived).
func TestReentryPreemptsSetHolder(t *testing.T) {
	// jA runs, is suspended by the short jB, and while it waits the
	// longer jC (momentarily higher xfactor) steals its processor set.
	// jA's xfactor keeps growing against jC's frozen one and reentry
	// preempts jC at the first tick where xfA ≥ 2·xfC.
	tr := &workload.Trace{Name: "t", Procs: 2, Jobs: []*job.Job{
		job.New(1, 0, 500, 500, 2),    // jA
		job.New(3, 30, 1200, 1200, 2), // jC, waits with slowly growing xf
		job.New(2, 60, 100, 100, 2),   // jB suspends jA at tick 180
	}}
	byID := run(t, tr, ss.Config{SF: 2})
	// jB: xf ≥ 2 at t=160 → tick 180; runs 180-280.
	if byID[2].FirstStart != 180 {
		t.Fatalf("jB start = %d, want 180", byID[2].FirstStart)
	}
	// At 280 jC (xf 1.208) edges out suspended jA (xf 1.2) and takes
	// the machine.
	if byID[3].FirstStart != 280 {
		t.Fatalf("jC start = %d, want 280", byID[3].FirstStart)
	}
	// Reentry: xfA ≥ 2×1.208 ⇒ t ≥ 888 → tick 900.
	if byID[3].Suspensions != 1 {
		t.Errorf("jC suspensions = %d, want 1 (reentry preemption)", byID[3].Suspensions)
	}
	if byID[1].Suspensions != 1 {
		t.Errorf("jA suspensions = %d, want 1", byID[1].Suspensions)
	}
	// jA resumes at 900 for its remaining 320 s.
	if byID[1].FinishTime != 1220 {
		t.Errorf("jA finish = %d, want 1220", byID[1].FinishTime)
	}
	// jC resumes after jA and still completes.
	if byID[3].FinishTime != 1800 {
		t.Errorf("jC finish = %d, want 1800", byID[3].FinishTime)
	}
}

// SS must never leave the machine idle while jobs wait for untouched
// processors (work conservation at the scheduling level): on a pure
// sequential-job workload it behaves like run-to-completion.
func TestNoGratuitousSuspensionOfEqualJobs(t *testing.T) {
	// Two identical simultaneous jobs on a machine that fits only one:
	// with SF=2 the analysis of Section IV-A says zero suspensions.
	tr := &workload.Trace{Name: "t", Procs: 2, Jobs: []*job.Job{
		job.New(1, 0, 1000, 1000, 2),
		job.New(2, 0, 1000, 1000, 2),
	}}
	byID := run(t, tr, ss.Config{SF: 2})
	if byID[1].Suspensions+byID[2].Suspensions != 0 {
		t.Errorf("suspensions = %d, want 0 at SF=2 (Section IV-A)",
			byID[1].Suspensions+byID[2].Suspensions)
	}
	if byID[2].FinishTime != 2000 {
		t.Errorf("job2 finish = %d, want 2000", byID[2].FinishTime)
	}
}

// With SF strictly between 1 and 2, two equal simultaneous jobs swap a
// bounded number of times (Figs. 4-6).
func TestEqualJobsSwapUnderLowSF(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 2, Jobs: []*job.Job{
		job.New(1, 0, 2000, 2000, 2),
		job.New(2, 0, 2000, 2000, 2),
	}}
	byID := run(t, tr, ss.Config{SF: 1.5})
	total := byID[1].Suspensions + byID[2].Suspensions
	if total == 0 {
		t.Error("expected at least one swap at SF=1.5")
	}
	if total > 4 {
		t.Errorf("suspensions = %d, want a small bounded number", total)
	}
}

// The at-most-once related-work variant: after one suspension the
// victim runs to completion regardless of waiting jobs' priorities.
func TestMaxSuspensionsCap(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 10000, 10000, 4),
		job.New(2, 100, 100, 100, 4), // suspends j1 at tick 240
		job.New(3, 500, 100, 100, 4), // would suspend j1 again, but the cap holds
	}}
	byID := run(t, tr, ss.Config{SF: 2, MaxSuspensions: 1})
	if byID[1].Suspensions != 1 {
		t.Errorf("j1 suspensions = %d, want exactly 1 (cap)", byID[1].Suspensions)
	}
	// j3 must wait for j1's completion instead of preempting.
	if byID[3].FirstStart < byID[1].FinishTime {
		t.Errorf("j3 started at %d before capped j1 finished at %d",
			byID[3].FirstStart, byID[1].FinishTime)
	}
}

// Scheduler names distinguish SS from TSS.
func TestNames(t *testing.T) {
	if got := ss.New(ss.Config{SF: 2}).Name(); got != "SS(SF=2)" {
		t.Errorf("Name = %q", got)
	}
	var limits ss.StaticLimits
	if got := ss.New(ss.Config{SF: 1.5, Limits: &limits}).Name(); got != "TSS(SF=1.5)" {
		t.Errorf("Name = %q", got)
	}
	if got := ss.New(ss.Config{SF: 2, Limits: &ss.AdaptiveLimits{}}).Name(); got != "TSS(SF=2)" {
		t.Errorf("Name = %q", got)
	}
}

func TestInvalidSFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for SF < 1")
		}
	}()
	ss.New(ss.Config{SF: 0.9})
}

// End-to-end sanity against the paper's headline: on a loaded workload,
// SS(SF=2) improves the mean slowdown of the Very-Short categories
// versus NS without destroying the Very-Long ones.
func TestSSImprovesShortJobSlowdowns(t *testing.T) {
	m := workload.SDSC()
	tr := workload.Generate(m, workload.GenOptions{Jobs: 2500, Seed: 21})
	ns := metrics.FromResult(sched.Run(tr, easy.New(), sched.Options{MaxSteps: 20_000_000}), metrics.All)
	s2 := metrics.FromResult(sched.Run(tr, ss.New(ss.Config{SF: 2}), sched.Options{MaxSteps: 20_000_000}), metrics.All)

	// Aggregate the VS row.
	vsNS, vsSS := 0.0, 0.0
	for w := job.Width(0); w < job.NumWidths; w++ {
		c := job.Category{Length: job.VeryShort, Width: w}
		vsNS += ns.Cat(c).MeanSlowdown
		vsSS += s2.Cat(c).MeanSlowdown
	}
	if vsSS >= vsNS {
		t.Errorf("SS did not improve VS slowdowns: %v vs NS %v", vsSS, vsNS)
	}
	// VL jobs degrade under plain SS (the paper's Section IV-D trend;
	// TSS is the remedy) but must stay within an order of magnitude.
	for w := job.Width(0); w < job.NumWidths; w++ {
		c := job.Category{Length: job.VeryLong, Width: w}
		if n := s2.Cat(c); n.Count > 0 && ns.Cat(c).Count > 0 {
			if n.MeanSlowdown > 8*ns.Cat(c).MeanSlowdown+1 {
				t.Errorf("VL-%v degraded too much: %v vs %v", w, n.MeanSlowdown, ns.Cat(c).MeanSlowdown)
			}
		}
	}
}
