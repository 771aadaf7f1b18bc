package experiment

import (
	"math"
	"reflect"
	"testing"

	"pjs/internal/obs"
	"pjs/internal/workload"
)

func TestReplicateDeterministic(t *testing.T) {
	base := Config{Jobs: 300}
	seeds := []int64{1, 2, 3}
	a := Replicate(base, seeds, "SDSC", workload.EstimateAccurate, 100, NS(), false, OverallMeanSlowdown)[0]
	b := Replicate(base, seeds, "SDSC", workload.EstimateAccurate, 100, NS(), false, OverallMeanSlowdown)[0]
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("seed %d: %v vs %v", seeds[i], a.Values[i], b.Values[i])
		}
	}
	if a.Mean != b.Mean || a.CI95 != b.CI95 {
		t.Error("aggregates differ between identical replications")
	}
	// Two metrics from one set of runs equal each from runs of its own.
	both := Replicate(base, seeds, "SDSC", workload.EstimateAccurate, 100, NS(), false,
		OverallMeanSlowdown, LoadedUtilizationPct)
	ut := Replicate(base, seeds, "SDSC", workload.EstimateAccurate, 100, NS(), false, LoadedUtilizationPct)[0]
	if len(both) != 2 || !reflect.DeepEqual(both[0], a) || !reflect.DeepEqual(both[1], ut) {
		t.Errorf("two-metric replication %+v, want %+v and %+v", both, a, ut)
	}
}

func TestReplicateSeedsDiffer(t *testing.T) {
	base := Config{Jobs: 300}
	rep := Replicate(base, []int64{1, 2, 3, 4}, "SDSC", workload.EstimateAccurate, 100, NS(), false, OverallMeanSlowdown)[0]
	same := true
	for _, v := range rep.Values[1:] {
		if v != rep.Values[0] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical metrics")
	}
	if rep.Std <= 0 || rep.CI95 <= 0 {
		t.Errorf("std=%v ci=%v, want positive", rep.Std, rep.CI95)
	}
}

func TestReplicateAggregates(t *testing.T) {
	// Hand-check the math on a fixed metric via a fake: use one seed
	// (degenerate statistics).
	rep := Replicate(Config{Jobs: 200}, []int64{7}, "SDSC", workload.EstimateAccurate, 100, NS(), false, OverallMeanSlowdown)[0]
	if len(rep.Values) != 1 || rep.Mean != rep.Values[0] {
		t.Errorf("single-seed aggregate wrong: %+v", rep)
	}
	if rep.Std != 0 || rep.CI95 != 0 {
		t.Error("single seed has no dispersion")
	}
	empty := Replicate(Config{Jobs: 200}, nil, "SDSC", workload.EstimateAccurate, 100, NS(), false, OverallMeanSlowdown)[0]
	if empty.Mean != 0 || len(empty.Values) != 0 {
		t.Error("empty seeds should aggregate to zero")
	}
}

// TestReplicateCountersDeterministic runs Replicate twice with engine
// counters on: the seeds run concurrently, each observed into a
// registry of its own, so both snapshots must be equal, and each
// scheme's arrivals must be seeds × jobs.
func TestReplicateCountersDeterministic(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	const jobs = 300
	snapshot := func() []obs.Counters {
		reg := obs.NewRegistry()
		for _, sc := range []Scheme{NS(), IS(), SS(2)} {
			Replicate(Config{Jobs: jobs, Counters: reg}, seeds, "SDSC", workload.EstimateAccurate, 100, sc, false, OverallMeanSlowdown)
		}
		return reg.Snapshot()
	}
	a, b := snapshot(), snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("counters differ between identical replications:\n%+v\n%+v", a, b)
	}
	if len(a) != 3 {
		t.Fatalf("%d counter sets, want one per scheme", len(a))
	}
	for _, c := range a {
		if c.Arrivals != int64(len(seeds)*jobs) {
			t.Errorf("%s: %d arrivals, want %d", c.Scheduler, c.Arrivals, len(seeds)*jobs)
		}
	}
}

func TestTCrit95(t *testing.T) {
	cases := map[int]float64{1: 12.706, 4: 2.776, 29: 2.045, 30: 2.042, 100: 1.96}
	for df, want := range cases {
		if got := tCrit95(df); math.Abs(got-want) > 1e-9 {
			t.Errorf("tCrit95(%d) = %v, want %v", df, got, want)
		}
	}
	if !math.IsNaN(tCrit95(0)) {
		t.Error("df=0 should be NaN")
	}
}

func TestLoadedUtilizationMetric(t *testing.T) {
	r := NewRunner(Config{Jobs: 300, Seed: 3})
	res := r.Result("SDSC", workload.EstimateAccurate, 100, NS(), false)
	sum := r.Summary("SDSC", workload.EstimateAccurate, 100, NS(), false, 0)
	got := LoadedUtilizationPct(sum, res)
	if got <= 0 || got > 100 {
		t.Errorf("utilization %% = %v", got)
	}
}
