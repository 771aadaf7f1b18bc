package speculative_test

import (
	"testing"

	"pjs/internal/check"
	"pjs/internal/job"
	"pjs/internal/metrics"
	"pjs/internal/sched"
	"pjs/internal/sched/easy"
	"pjs/internal/sched/speculative"
	"pjs/internal/workload"
)

func run(t *testing.T, tr *workload.Trace, cfg speculative.Config) (map[int]*job.Job, *sched.Result) {
	t.Helper()
	res := sched.Run(tr, speculative.New(cfg), sched.Options{Audit: true, MaxSteps: 5_000_000})
	byID := map[int]*job.Job{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	return byID, res
}

// scenario: j1 occupies 3 of 5 processors until t=1000; j2 (head) needs
// the whole machine; j3 and j4 both gamble on the hole before the head's
// reservation. j3's estimate is inflated 48× — it wins. j4 is honestly
// long — it is killed at the first tick past the hole and requeued.
func scenario() *workload.Trace {
	return &workload.Trace{Name: "spec", Procs: 5, Jobs: []*job.Job{
		job.New(1, 0, 1000, 1000, 3),
		job.New(2, 10, 2000, 2000, 5),
		job.New(3, 20, 100, 4800, 1),  // badly over-estimated: the winner
		job.New(4, 30, 4800, 4800, 1), // honest long job: the loser
	}}
}

func TestSpeculativeWinnerStartsEarly(t *testing.T) {
	byID, res := run(t, scenario(), speculative.Config{})
	if byID[3].FirstStart != 20 {
		t.Errorf("winner start = %d, want 20 (speculative)", byID[3].FirstStart)
	}
	if byID[3].FinishTime != 120 || byID[3].Kills != 0 {
		t.Errorf("winner finish=%d kills=%d, want 120,0", byID[3].FinishTime, byID[3].Kills)
	}
	// Under plain EASY the same job waits until after the head.
	easyRes := sched.Run(scenario(), easy.New(), sched.Options{MaxSteps: 1_000_000})
	for _, j := range easyRes.Jobs {
		if j.ID == 3 && j.FirstStart == 20 {
			t.Error("EASY should not have started the over-estimated job at 20")
		}
	}
	if err := check.Check(res.Audit, check.Options{ZeroOverhead: true}); err != nil {
		t.Error(err)
	}
}

func TestSpeculativeLoserIsKilledAndRequeued(t *testing.T) {
	byID, _ := run(t, scenario(), speculative.Config{})
	if byID[4].FirstStart != 30 {
		t.Fatalf("loser first start = %d, want 30 (speculative)", byID[4].FirstStart)
	}
	if byID[4].Kills != 1 {
		t.Errorf("loser kills = %d, want 1", byID[4].Kills)
	}
	// The kill fires at the tick after the hole closes (t=1020); the
	// head starts then, and the loser reruns from scratch after it.
	if byID[2].FirstStart != 1020 {
		t.Errorf("head start = %d, want 1020", byID[2].FirstStart)
	}
	if byID[4].FinishTime != 3020+4800 {
		t.Errorf("loser finish = %d, want %d (full rerun)", byID[4].FinishTime, 3020+4800)
	}
}

func TestSpecFactorGatesGambles(t *testing.T) {
	// With SpecFactor 2 neither job qualifies (estimate 4800 > 2×980).
	byID, res := run(t, scenario(), speculative.Config{SpecFactor: 2})
	if byID[3].FirstStart == 20 || byID[4].FirstStart == 30 {
		t.Error("SpecFactor=2 should block both gambles")
	}
	if res.Audit != nil {
		for _, e := range res.Audit.Entries {
			if e.Action == sched.ActKill {
				t.Fatal("no kills expected when speculation is gated off")
			}
		}
	}
}

func TestMaxKillsStopsThrashing(t *testing.T) {
	m := workload.SDSC()
	m.Procs = 32
	tr := workload.Generate(m, workload.GenOptions{
		Jobs: 400, Seed: 9, Estimates: workload.EstimateInaccurate,
	})
	byID, _ := run(t, tr, speculative.Config{})
	for id, j := range byID {
		if j.Kills > speculative.MaxKills {
			t.Fatalf("job %d killed %d times, cap is %d", id, j.Kills, speculative.MaxKills)
		}
	}
}

func TestSpeculativeInvariantsRandomized(t *testing.T) {
	m := workload.SDSC()
	m.Procs = 64
	for seed := int64(1); seed <= 3; seed++ {
		tr := workload.Generate(m, workload.GenOptions{
			Jobs: 300, Seed: seed, Estimates: workload.EstimateInaccurate,
		})
		res := sched.Run(tr, speculative.New(speculative.Config{}),
			sched.Options{Audit: true, MaxSteps: 10_000_000})
		if err := check.Check(res.Audit, check.Options{ZeroOverhead: true}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// The Section V analysis reproduced: speculative backfilling slashes the
// slowdown of abort-like jobs by orders of magnitude while leaving the
// normally-completing jobs' average untouched — which is exactly why the
// paper warns that whole-trace averages under such schemes mislead, and
// why it splits metrics by estimate quality.
func TestSpeculationHelpsAbortLikeJobsOnly(t *testing.T) {
	tr := workload.AbortStress(40)
	nsRes := sched.Run(tr, easy.New(), sched.Options{MaxSteps: 10_000_000})
	spRes := sched.Run(tr, speculative.New(speculative.Config{}), sched.Options{MaxSteps: 10_000_000})
	split := func(res *sched.Result) (abortSD, normalSD float64) {
		var na, nn int
		for _, j := range res.Jobs {
			if j.RunTime == 120 {
				abortSD += metrics.BoundedSlowdown(j)
				na++
			} else {
				normalSD += metrics.BoundedSlowdown(j)
				nn++
			}
		}
		return abortSD / float64(na), normalSD / float64(nn)
	}
	nsAbort, nsNormal := split(nsRes)
	spAbort, spNormal := split(spRes)
	t.Logf("abort-like mean slowdown: EASY=%.1f SpecBF=%.1f; normal: EASY=%.2f SpecBF=%.2f",
		nsAbort, spAbort, nsNormal, spNormal)
	if spAbort > nsAbort/10 {
		t.Errorf("speculation should slash abort-like slowdown: %v vs %v", spAbort, nsAbort)
	}
	// Normal jobs must be essentially unaffected.
	if spNormal > 1.1*nsNormal {
		t.Errorf("normal jobs regressed: %v vs %v", spNormal, nsNormal)
	}
}

func TestName(t *testing.T) {
	if speculative.New(speculative.Config{}).Name() != "SpecBF" {
		t.Error("name")
	}
}
