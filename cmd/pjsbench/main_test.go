package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runBench invokes the CLI entry point capturing both streams.
func runBench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestMeasureWritesValidBench runs a tiny matrix end-to-end and checks
// the written file parses under the current schema with the matrix
// fully enumerated, then self-compares it (a file can never regress
// against itself).
func TestMeasureWritesValidBench(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	code, stdout, stderr := runBench(t,
		"-policies", "fcfs", "-models", "CTC", "-loads", "1.0",
		"-jobs", "60", "-samples", "2", "-out", out)
	if code != 0 {
		t.Fatalf("measure exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	b, err := loadBench(out)
	if err != nil {
		t.Fatal(err)
	}
	if b.Schema != Schema {
		t.Fatalf("schema = %q, want %q", b.Schema, Schema)
	}
	if len(b.Scenarios) != 3 { // fault off + on + transient
		t.Fatalf("got %d scenarios, want 3", len(b.Scenarios))
	}
	var sawTransient bool
	for _, sc := range b.Scenarios {
		if sc.Transient {
			sawTransient = true
			if !strings.HasSuffix(sc.ID, "/transient") {
				t.Errorf("transient scenario id = %q, want /transient suffix", sc.ID)
			}
		}
	}
	if !sawTransient {
		t.Error("default fault axis produced no transient scenario")
	}
	for _, sc := range b.Scenarios {
		if sc.Events <= 0 {
			t.Errorf("%s: no events recorded", sc.ID)
		}
		if len(sc.NsPerEvent) != 2 || len(sc.EventsPerSec) != 2 {
			t.Errorf("%s: want 2 samples, got %d/%d", sc.ID, len(sc.NsPerEvent), len(sc.EventsPerSec))
		}
		if len(sc.Phases) == 0 {
			t.Errorf("%s: no phase breakdown", sc.ID)
		}
	}
	if b.Env.GoVersion == "" || b.Env.GOMAXPROCS < 1 {
		t.Errorf("environment fingerprint incomplete: %+v", b.Env)
	}

	code, stdout, _ = runBench(t, "-compare", out, out)
	if code != 0 {
		t.Fatalf("self-compare exited %d:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "no regressions") {
		t.Errorf("self-compare verdict missing:\n%s", stdout)
	}
}

// writeBench marshals a Bench to a file in the temp dir.
func writeBench(t *testing.T, dir, name string, b *Bench) string {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// syntheticBench builds a measurement file with the given per-event
// cost; low variance so the IQR noise gate cannot mask the delta.
func syntheticBench(nsPerEvent float64) *Bench {
	return &Bench{
		Schema:  Schema,
		Jobs:    100,
		Samples: 3,
		Scenarios: []Scenario{{
			ID: "fcfs/CTC/load1/nofault", Policy: "fcfs", Model: "CTC", Load: 1,
			Events:       1000,
			NsPerEvent:   []float64{nsPerEvent * 0.99, nsPerEvent, nsPerEvent * 1.01},
			EventsPerSec: []float64{1e9 / nsPerEvent, 1e9 / nsPerEvent, 1e9 / nsPerEvent},
		}},
	}
}

// TestCompareDetectsSlowdown is the acceptance criterion: an artificial
// 2× ns/event slowdown must be reported as a regression with a
// non-zero exit code.
func TestCompareDetectsSlowdown(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBench(t, dir, "old.json", syntheticBench(500))
	newPath := writeBench(t, dir, "new.json", syntheticBench(1000))

	code, stdout, _ := runBench(t, "-compare", oldPath, newPath)
	if code != 3 {
		t.Fatalf("2x slowdown compare exited %d, want 3:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "REGRESSION") {
		t.Errorf("report does not flag the regression:\n%s", stdout)
	}
	if !strings.Contains(stdout, "+100.0%") {
		t.Errorf("report does not show the 2x delta:\n%s", stdout)
	}

	// The reverse direction is an improvement, never a failure.
	code, stdout, _ = runBench(t, "-compare", newPath, oldPath)
	if code != 0 {
		t.Fatalf("speedup compare exited %d, want 0:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "improved") {
		t.Errorf("report does not note the improvement:\n%s", stdout)
	}
}

// TestCompareThreshold checks the noise knob: a 30% slowdown passes a
// 50% threshold and fails a 10% one.
func TestCompareThreshold(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBench(t, dir, "old.json", syntheticBench(500))
	newPath := writeBench(t, dir, "new.json", syntheticBench(650))

	if code, out, _ := runBench(t, "-compare", "-threshold", "0.5", oldPath, newPath); code != 0 {
		t.Errorf("30%% slowdown vs 50%% threshold exited %d, want 0:\n%s", code, out)
	}
	if code, out, _ := runBench(t, "-compare", "-threshold", "0.1", oldPath, newPath); code != 3 {
		t.Errorf("30%% slowdown vs 10%% threshold exited %d, want 3:\n%s", code, out)
	}
}

// TestCompareIQRNoiseGate: a delta inside the measurement spread is
// noise even past the relative threshold.
func TestCompareIQRNoiseGate(t *testing.T) {
	dir := t.TempDir()
	noisy := syntheticBench(500)
	noisy.Scenarios[0].NsPerEvent = []float64{200, 500, 1400} // IQR 1200
	oldPath := writeBench(t, dir, "old.json", noisy)
	newPath := writeBench(t, dir, "new.json", syntheticBench(1000))

	code, stdout, _ := runBench(t, "-compare", oldPath, newPath)
	if code != 0 {
		t.Fatalf("delta within IQR noise exited %d, want 0:\n%s", code, stdout)
	}
}

// TestCompareScenarioChurn: added and removed scenarios are reported
// but are not regressions.
func TestCompareScenarioChurn(t *testing.T) {
	dir := t.TempDir()
	oldB := syntheticBench(500)
	oldB.Scenarios[0].ID = "only-old"
	newB := syntheticBench(500)
	newB.Scenarios[0].ID = "only-new"
	oldPath := writeBench(t, dir, "old.json", oldB)
	newPath := writeBench(t, dir, "new.json", newB)

	code, stdout, _ := runBench(t, "-compare", oldPath, newPath)
	if code != 0 {
		t.Fatalf("churn-only compare exited %d, want 0:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "new scenario") || !strings.Contains(stdout, "removed") {
		t.Errorf("churn not reported:\n%s", stdout)
	}
}

// TestCompareRejectsBadInput: schema mismatches and missing files are
// input failures (exit 1); wrong arity is a flag error (exit 2).
func TestCompareRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	good := writeBench(t, dir, "good.json", syntheticBench(500))
	bad := syntheticBench(500)
	bad.Schema = "pjsbench/999"
	badPath := writeBench(t, dir, "bad.json", bad)

	if code, _, _ := runBench(t, "-compare", good, badPath); code != 1 {
		t.Errorf("schema mismatch exited %d, want 1", code)
	}
	if code, _, _ := runBench(t, "-compare", good, filepath.Join(dir, "missing.json")); code != 1 {
		t.Errorf("missing file exited %d, want 1", code)
	}
	if code, _, _ := runBench(t, "-compare", good); code != 2 {
		t.Errorf("one-file compare exited %d, want 2", code)
	}
	if code, _, _ := runBench(t, "-models", "NoSuchMachine"); code != 1 {
		t.Errorf("unknown model exited %d, want 1", code)
	}
	if code, _, _ := runBench(t, "-loads", "zero"); code != 1 {
		t.Errorf("bad load exited %d, want 1", code)
	}
}

// TestMedianIQR pins the order statistics the verdict hangs on.
func TestMedianIQR(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	if got := iqr([]float64{1, 2, 3, 4, 5}); got != 2 {
		t.Errorf("iqr = %v, want 2", got)
	}
	if got := iqr([]float64{200, 500, 1400}); got != 1200 {
		t.Errorf("iqr n=3 = %v, want 1200 (q3 rounds up)", got)
	}
	if got := iqr([]float64{7}); got != 0 {
		t.Errorf("iqr single = %v, want 0", got)
	}
}

// TestScenarioIDLoads pins the load rendering: distinct loads get
// distinct IDs, and 1.0 keeps the "load1" of existing BENCH files.
func TestScenarioIDLoads(t *testing.T) {
	for _, tc := range []struct {
		load float64
		want string
	}{
		{1.0, "ns/CTC/load1/nofault"},
		{1.2, "ns/CTC/load1.2/nofault"},
		{1.21, "ns/CTC/load1.21/nofault"},
		{1.24, "ns/CTC/load1.24/nofault"},
		{1.25, "ns/CTC/load1.25/nofault"},
		{0.5, "ns/CTC/load0.5/nofault"},
	} {
		if got := scenarioID("ns", "CTC", tc.load, faultNone); got != tc.want {
			t.Errorf("scenarioID(load %v) = %q, want %q", tc.load, got, tc.want)
		}
	}
}

// TestParseLoads: every entry must be a finite positive number.
func TestParseLoads(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64 // nil: rejected
	}{
		{"1.0", []float64{1}},
		{"0.8, 1.2", []float64{0.8, 1.2}},
		{"zero", nil},
		{"0", nil},
		{"-1", nil},
		{"NaN", nil},
		{"Inf", nil},
		{"+Inf", nil},
		{"-Inf", nil},
		{"1,NaN", nil},
		{"", nil},
	} {
		got, err := parseLoads(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseLoads(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || len(got) != len(tc.want) {
			t.Errorf("parseLoads(%q) = %v, %v, want %v", tc.in, got, err, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parseLoads(%q) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

// TestDuplicateScenariosRejected: a matrix that names one scenario
// twice fails before anything is measured or written.
func TestDuplicateScenariosRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		dup  string
	}{
		{"repeated load", []string{"-loads", "1,1"}, "ns/CTC/load1/nofault"},
		{"same load spelled twice", []string{"-loads", "1,1.0"}, "ns/CTC/load1/nofault"},
		{"repeated policy", []string{"-policies", "ns, ns"}, "ns/CTC/load1/nofault"},
		{"repeated model", []string{"-models", "CTC,CTC"}, "ns/CTC/load1/nofault"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "BENCH.json")
			args := append([]string{"-policies", "ns", "-models", "CTC", "-fault", "off",
				"-jobs", "20", "-samples", "1", "-out", out}, tc.args...)
			code, _, stderr := runBench(t, args...)
			if code != 1 || !strings.Contains(stderr, "duplicate scenario "+tc.dup) {
				t.Errorf("exit %d, stderr %q; want exit 1 naming duplicate %s", code, stderr, tc.dup)
			}
			if strings.Contains(stderr, "events/sec") {
				t.Errorf("measured before rejecting the matrix:\n%s", stderr)
			}
			if _, err := os.Stat(out); err == nil {
				t.Errorf("wrote %s for a rejected matrix", out)
			}
		})
	}
}
