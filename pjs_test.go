package pjs

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"pjs/internal/policy"
)

func TestNewSchedulerSpecs(t *testing.T) {
	cases := map[string]string{
		"fcfs":         "FCFS",
		"conservative": "Conservative",
		"cons":         "Conservative",
		"ns":           "NS",
		"easy":         "NS",
		"is":           "IS",
		"ss:2":         "SS(SF=2)",
		"ss:1.5":       "SS(SF=1.5)",
		"tss:2":        "TSS(SF=2)",
		" SS:5 ":       "SS(SF=5)",
		"ssmig:2":      "SS-mig(SF=2)",
		"gang":         "Gang(Q=600s)",
		"gang:300":     "Gang(Q=300s)",
		"spec":         "SpecBF",
		"spec:10":      "SpecBF",
		"depth:4":      "DepthBF(4)",
		"depthbf":      "DepthBF(1)",
	}
	for spec, want := range cases {
		s, err := NewScheduler(spec)
		if err != nil {
			t.Errorf("NewScheduler(%q): %v", spec, err)
			continue
		}
		if s.Name() != want {
			t.Errorf("NewScheduler(%q).Name() = %q, want %q", spec, s.Name(), want)
		}
	}
}

func TestNewSchedulerErrors(t *testing.T) {
	// Each bad spec and a substring its error must contain: the
	// argument the policy takes, or that it takes none.
	cases := map[string]string{
		"":                       "unknown scheduler",
		"bogus":                  "unknown scheduler",
		"ss:abc":                 `bad suspension factor "abc"`,
		"ss:0.5":                 "suspension factor 0.5 must be ≥ 1",
		"tss:0":                  "suspension factor 0 must be ≥ 1",
		"gang:0":                 "gang quantum 0 must be ≥ 1",
		"gang:x":                 `bad gang quantum "x"`,
		"gang:1.5":               `bad gang quantum "1.5"`,
		"depth:0":                "reservation depth 0 must be ≥ 1",
		"spec:1":                 "speculation factor 1 must be > 1",
		"fcfs:3":                 "fcfs takes no argument",
		"ns:7":                   "ns takes no argument",
		"conservative:-1":        "conservative takes no argument",
		"is:x":                   "is takes no argument",
		"ss:nan":                 `bad suspension factor "nan"`,
		"tss:NaN":                `bad suspension factor "nan"`,
		"ss:inf":                 `bad suspension factor "inf"`,
		"spec:inf":               `bad speculation factor "inf"`,
		"spec:abc":               `bad speculation factor "abc"`,
		"depth:9007199254740993": `bad reservation depth`,
	}
	for spec, want := range cases {
		_, err := NewScheduler(spec)
		if err == nil {
			t.Errorf("NewScheduler(%q) should fail", spec)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("NewScheduler(%q) error %q, want it to contain %q", spec, err, want)
		}
	}
}

// TestPackageDocGrammar holds the spec table in the package comment to
// the rendering of the policy table.
func TestPackageDocGrammar(t *testing.T) {
	src, err := os.ReadFile("pjs.go")
	if err != nil {
		t.Fatal(err)
	}
	block := "//\t" + strings.ReplaceAll(policy.Usage(), "\n", "\n//\t") + "\n//\n"
	if !strings.Contains(string(src), block) {
		t.Errorf("pjs.go's package comment lacks the rendered policy table:\n%s", block)
	}
	_, err = NewScheduler("lottery")
	if want := "(want " + policy.Grammar() + ")"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("unknown-scheduler error %v, want it to list %s", err, want)
	}
}

func TestQuickstartFlow(t *testing.T) {
	trace := Generate(SDSC(), GenOptions{Jobs: 300, Seed: 1})
	s, err := NewScheduler("ss:2")
	if err != nil {
		t.Fatal(err)
	}
	res := Simulate(trace, s, Options{MaxSteps: 5_000_000})
	sum := Summarize(res, All)
	if sum.Overall.Count != 300 {
		t.Fatalf("count = %d", sum.Overall.Count)
	}
	if sum.Overall.MeanSlowdown < 1 {
		t.Errorf("slowdown = %v", sum.Overall.MeanSlowdown)
	}
}

func TestNewTSSUsesLimits(t *testing.T) {
	trace := Generate(SDSC(), GenOptions{Jobs: 400, Seed: 2})
	ns, _ := NewScheduler("ns")
	base := Summarize(Simulate(trace, ns, Options{MaxSteps: 5_000_000}), All)
	tss := NewTSS(2, base.SlowdownTable())
	if tss.Name() != "TSS(SF=2)" {
		t.Errorf("Name = %q", tss.Name())
	}
	res := Simulate(trace, tss, Options{MaxSteps: 5_000_000})
	if len(res.Jobs) != 400 {
		t.Fatal("incomplete run")
	}
}

func TestSWFRoundTripViaFacade(t *testing.T) {
	trace := Generate(KTH(), GenOptions{Jobs: 50, Seed: 3})
	var buf bytes.Buffer
	if err := WriteSWF(&buf, trace); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSWF(&buf, "kth")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != 50 {
		t.Fatalf("jobs = %d", len(back.Jobs))
	}
}

func TestExperimentRegistryViaFacade(t *testing.T) {
	if len(Experiments()) < 45 {
		t.Errorf("registry has %d experiments", len(Experiments()))
	}
	e, ok := ExperimentByID("table1")
	if !ok {
		t.Fatal("table1 missing")
	}
	out := e.Run(NewRunner(ExpConfig{Jobs: 100})).Render()
	if !strings.Contains(out, "VS") {
		t.Errorf("table1 output:\n%s", out)
	}
}

func TestModelByNameFacade(t *testing.T) {
	if _, ok := ModelByName("CTC"); !ok {
		t.Error("CTC missing")
	}
	if _, ok := ModelByName("XXX"); ok {
		t.Error("bogus model resolved")
	}
}

func TestDiskOverheadOption(t *testing.T) {
	if DiskOverhead().Overhead == nil {
		t.Error("DiskOverhead returned no model")
	}
}
