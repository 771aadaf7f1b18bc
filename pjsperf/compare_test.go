package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pjs/internal/cli"
)

// metricNamed returns the end-to-end metric of that name.
func metricNamed(t *testing.T, name string) metric {
	t.Helper()
	for _, m := range endToEnd {
		if m.name == name {
			return m
		}
	}
	t.Fatalf("no end-to-end metric %q", name)
	return metric{}
}

// scaled returns v with every value multiplied by f.
func scaled(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

var tight = []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01}

func TestJudgeVerdicts(t *testing.T) {
	wall := metricNamed(t, "wall_s")
	jobs := metricNamed(t, "jobs_per_s")
	for _, tc := range []struct {
		name     string
		m        metric
		old, cur []float64
		want     string
	}{
		{"same", wall, tight, tight, verdictOK},
		{"within bound", wall, tight, scaled(tight, 1+wall.bound/2), verdictOK},
		{"slower", wall, tight, scaled(tight, 1+wall.bound+0.1), verdictRegressed},
		{"faster", wall, tight, scaled(tight, 1-wall.bound-0.1), verdictImproved},
		{"higher is better, fell", jobs, tight, scaled(tight, 1-jobs.bound-0.1), verdictRegressed},
		{"higher is better, rose", jobs, tight, scaled(tight, 1+jobs.bound+0.1), verdictImproved},
		{"wide and overlapping", wall, tight, []float64{0.4, 1.0, 1.6, 2.2, 0.7, 1.9, 0.5}, verdictUnresolved},
		{"wide but every run slower", wall, tight, []float64{1.5, 2.5, 3.5, 4.5, 1.6, 3.0, 4.0}, verdictRegressed},
	} {
		if got, _ := judge(tc.m, tc.old, tc.cur); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// writeSynthetic writes a one-workload report whose every metric has the
// tight samples, with wall_s multiplied by wallFactor.
func writeSynthetic(t *testing.T, dir, file string, wallFactor float64, failed int) string {
	t.Helper()
	samples := map[string][]float64{}
	for _, m := range endToEnd {
		samples[m.name] = tight
	}
	samples["wall_s"] = scaled(tight, wallFactor)
	r := reportFile{Schema: schema, Seed: 1, Workloads: []workloadReport{
		{Name: "preempt-ctc", Digest: "0", Attempted: 100, Failed: failed, Samples: samples},
	}}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func compareOut(t *testing.T, oldPath, newPath string) (int, string) {
	t.Helper()
	var out, errb strings.Builder
	code := compareFiles(oldPath, newPath, cli.Wrap(&out), cli.Wrap(&errb))
	return code, out.String()
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeSynthetic(t, dir, "base.json", 1, 0)
	for _, tc := range []struct {
		name       string
		wallFactor float64
		failed     int
		code       int
		verdict    string
	}{
		{"unchanged", 1, 0, 0, verdictOK},
		{"improved", 0.5, 0, 0, verdictImproved},
		{"regressed", 2, 0, 3, verdictRegressed},
		{"failures grew", 1, 1, 3, verdictRegressed},
	} {
		cur := writeSynthetic(t, dir, tc.name+".json", tc.wallFactor, tc.failed)
		code, out := compareOut(t, base, cur)
		if code != tc.code || !strings.Contains(out, tc.verdict) {
			t.Errorf("%s: exit %d, want %d, output:\n%s", tc.name, code, tc.code, out)
		}
		if _, again := compareOut(t, base, cur); again != out {
			t.Errorf("%s: output differs between two identical comparisons", tc.name)
		}
	}
}

func TestCompareRejectsOtherSchemas(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"schema":"pjsbench/1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := compareOut(t, path, path); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
}
