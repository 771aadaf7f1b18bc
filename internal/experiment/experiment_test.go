package experiment

import (
	"slices"
	"strings"
	"testing"

	"pjs/internal/job"
	"pjs/internal/metrics"
	"pjs/internal/obs"
	"pjs/internal/workload"
)

func testRunner() *Runner {
	return NewRunner(Config{Jobs: 700, Seed: 3})
}

func TestRegistryComplete(t *testing.T) {
	// Every paper table and figure must be registered.
	want := []string{
		"table1", "table2", "table3", "table4", "table5",
		"table6", "table7", "table8",
		"fig4", "fig5", "fig6",
	}
	for i := 7; i <= 44; i++ {
		want = append(want, "fig"+itoa(i))
	}
	have := map[string]bool{}
	for _, e := range registry {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

func itoa(i int) string {
	if i >= 10 {
		return string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	return string(rune('0' + i))
}

func TestByID(t *testing.T) {
	e, ok := ByID("fig7")
	if !ok || e.ID != "fig7" {
		t.Fatal("fig7 lookup failed")
	}
	if _, ok := ByID("fig999"); ok {
		t.Error("unknown id resolved")
	}
}

func TestRunnerMemoizesTraces(t *testing.T) {
	r := testRunner()
	a := r.Trace("CTC", workload.EstimateAccurate, 100)
	b := r.Trace("CTC", workload.EstimateAccurate, 100)
	if a != b {
		t.Error("trace not memoized")
	}
	c := r.Trace("CTC", workload.EstimateAccurate, 120)
	if c == a {
		t.Error("scaled trace must be distinct")
	}
	if c.Procs != a.Procs || len(c.Jobs) != len(a.Jobs) {
		t.Error("scaled trace shape mismatch")
	}
}

func TestRunnerMemoizesResults(t *testing.T) {
	r := testRunner()
	a := r.Result("SDSC", workload.EstimateAccurate, 100, NS(), false)
	b := r.Result("SDSC", workload.EstimateAccurate, 100, NS(), false)
	if a != b {
		t.Error("result not memoized")
	}
	c := r.Result("SDSC", workload.EstimateAccurate, 100, NS(), true)
	if c == a {
		t.Error("overhead flag must key separately")
	}
}

func TestRunnerUnknownModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	testRunner().Trace("NOPE", workload.EstimateAccurate, 100)
}

func TestTheoryAndCriteriaExperiments(t *testing.T) {
	r := testRunner()
	for _, id := range []string{"table1", "table6", "fig4", "fig5", "fig6"} {
		e, _ := ByID(id)
		out := e.Run(r).Render()
		if len(out) == 0 {
			t.Errorf("%s produced empty output", id)
		}
	}
	e, _ := ByID("fig6")
	if !strings.Contains(e.Run(r).Render(), "suspensions=0") {
		t.Error("fig6 (SF=2) must show zero suspensions")
	}
}

func TestDistributionExperimentMatchesModel(t *testing.T) {
	r := NewRunner(Config{Jobs: 8000, Seed: 5})
	e, _ := ByID("table2")
	out := e.Run(r).Render()
	if !strings.Contains(out, "0 - 10 min") {
		t.Fatalf("table2 missing rows:\n%s", out)
	}
}

func TestNSSlowdownTableShape(t *testing.T) {
	// Table IV's qualitative shape: short-wide jobs suffer the worst
	// slowdowns under NS; long jobs are near 1.
	r := NewRunner(Config{Jobs: 2500, Seed: 7})
	sum := r.Summary("SDSC", workload.EstimateAccurate, 100, NS(), false, metrics.All)
	vsVW := sum.Cat(job.Category{Length: job.VeryShort, Width: job.VeryWide})
	vlSeq := sum.Cat(job.Category{Length: job.VeryLong, Width: job.Sequential})
	if vsVW.Count == 0 || vlSeq.Count == 0 {
		t.Skip("categories unpopulated at this scale")
	}
	if vsVW.MeanSlowdown <= vlSeq.MeanSlowdown {
		t.Errorf("VS-VW slowdown %.2f should exceed VL-Seq %.2f",
			vsVW.MeanSlowdown, vlSeq.MeanSlowdown)
	}
}

func TestFig7TableStructure(t *testing.T) {
	r := testRunner()
	e, _ := ByID("fig7")
	out := e.Run(r).Render()
	for _, want := range []string{"SF = 1.5", "SF = 2", "SF = 5", "No Suspension", "IS", "VS-Seq", "VL-VW"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 missing %q:\n%s", want, out)
		}
	}
	csv := e.Run(r).CSV()
	if !strings.HasPrefix(csv, "category,") {
		t.Errorf("fig7 csv header:\n%s", csv)
	}
}

func TestOverheadColumnsDiffer(t *testing.T) {
	r := testRunner()
	a := r.Result("SDSC", workload.EstimateInaccurate, 100, TSS(2), false)
	b := r.Result("SDSC", workload.EstimateInaccurate, 100, TSS(2), true)
	if a == b {
		t.Fatal("overhead run must be distinct")
	}
	// With overhead the makespan cannot shrink.
	if b.End < a.End-1 && a.Suspensions > 0 {
		t.Logf("note: overhead end %d vs %d (scheduling divergence)", b.End, a.End)
	}
}

func TestLoadVariationExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load sweep is slow")
	}
	r := NewRunner(Config{Jobs: 400, Seed: 9})
	for _, id := range []string{"fig38", "fig39", "fig43"} {
		e, _ := ByID(id)
		out := e.Run(r).Render()
		if !strings.Contains(out, "No Suspension") || !strings.Contains(out, "SF = 2 Tuned") {
			t.Errorf("%s missing scheme columns:\n%s", id, out)
		}
	}
}

// Every registered experiment must run end to end at reduced scale and
// produce non-empty output. This is the harness's own integration test.
func TestAllExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep is slow")
	}
	r := NewRunner(Config{Jobs: 250, Seed: 2})
	for _, e := range All() {
		out := e.Run(r)
		if out == nil {
			t.Fatalf("%s returned nil", e.ID)
		}
		if rendered := out.Render(); len(rendered) == 0 {
			t.Errorf("%s rendered empty", e.ID)
		}
	}
}

func TestVerifyModeChecksEveryRun(t *testing.T) {
	r := NewRunner(Config{Jobs: 300, Seed: 10, Verify: true})
	// Exercise preemptive, migration and overhead paths under verify.
	r.Result("SDSC", workload.EstimateAccurate, 100, SS(2), false)
	r.Result("SDSC", workload.EstimateAccurate, 100, SSMig(2), false)
	r.Result("SDSC", workload.EstimateAccurate, 100, TSS(2), true)
	// Reaching here without a panic means every audit passed.
}

func TestEstimateAblationRegistered(t *testing.T) {
	for _, id := range []string{"ablation-estimates", "ablation-variance", "kth-sanity",
		"ablation-depth", "ablation-maxsusp", "ablation-speculative", "ablation-migration",
		"ablation-gang", "ablation-tss-seed"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("%s not registered", id)
		}
	}
}

func TestGroupRenderable(t *testing.T) {
	g := Group{Text("a\n"), Text("b\n")}
	if g.Render() != "a\n\nb\n" {
		t.Errorf("group render %q", g.Render())
	}
	if g.CSV() != "" {
		t.Errorf("texts have no csv, got %q", g.CSV())
	}
}

func TestColumnLabels(t *testing.T) {
	c := column{Scheme: TSS(2)}
	if c.label() != "SF = 2 Tuned" {
		t.Errorf("label = %q", c.label())
	}
	c.OH = true
	if c.label() != "SF = 2 Tuned OH" {
		t.Errorf("label = %q", c.label())
	}
	c.Label = "custom"
	if c.label() != "custom" {
		t.Errorf("label = %q", c.label())
	}
}

// TestSchemeLabels pins every scheme's figure label, which keys the
// memo files and the pexp table columns, and the policy it builds.
func TestSchemeLabels(t *testing.T) {
	cases := []struct {
		sc          Scheme
		label, name string
	}{
		{NS(), "No Suspension", "NS"},
		{IS(), "IS", "IS"},
		{FCFS(), "FCFS", "FCFS"},
		{Conservative(), "Conservative", "Conservative"},
		{SS(2), "SF = 2", "SS(SF=2)"},
		{SS(1.5), "SF = 1.5", "SS(SF=1.5)"},
		{TSS(1.5), "SF = 1.5 Tuned", "TSS(SF=1.5)"},
		{TSSFromNS(2), "SF = 2 Tuned(NS)", "TSS(SF=2)"},
		{TSSAdaptive(2), "SF = 2 Adaptive", "TSS(SF=2)"},
		{SSMig(2), "SF = 2 Migratable", "SS-mig(SF=2)"},
		{Gang(600), "Gang Q=600s", "Gang(Q=600s)"},
		{Gang(3600), "Gang Q=3600s", "Gang(Q=3600s)"},
		{DepthBF(2), "Depth 2", "DepthBF(2)"},
		{SSOnce(2), "SF = 2 Once", "SS(SF=2)"},
		{SSNoWidthRule(2), "SF = 2 NoWidthRule", "SS(SF=2)"},
	}
	r := NewRunner(Config{Jobs: 100})
	tk := traceKey{"SDSC", workload.EstimateAccurate, 100}
	for _, c := range cases {
		if c.sc.Label != c.label {
			t.Errorf("label = %q, want %q", c.sc.Label, c.label)
		}
		if got := c.sc.make(r, tk).Name(); got != c.name {
			t.Errorf("%s builds %q, want %q", c.label, got, c.name)
		}
	}
}

// ablation-alloc and ablation-speculative simulate traces of their own
// (a load-scaled SDSC trace, the abort-stress workload) with per-run
// options, through the Runner like every other experiment: Verify
// replays their audit logs and Counters counts them.
func TestTraceSpecificAblationsRunThroughRunner(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRunner(Config{Jobs: 300, Verify: true, Counters: reg})
	for _, id := range []string{"ablation-alloc", "ablation-speculative"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("no experiment %s", id)
		}
		e.Run(r)
	}
	var got []string
	for _, c := range reg.Snapshot() {
		if c.Arrivals == 0 {
			t.Errorf("%s: no arrivals counted", c.Scheduler)
		}
		got = append(got, c.Scheduler)
	}
	want := []string{"SF = 2 first-fit", "SF = 2 best-fit contiguous",
		"abort-stress EASY", "abort-stress SpecBF", "abort-stress TSS(SF=2 adaptive)"}
	if !slices.Equal(got, want) {
		t.Errorf("counted runs = %q, want %q", got, want)
	}
}
