package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pjs/internal/cli"
	"pjs/internal/obs"
	"pjs/internal/perf"
)

// small returns a copy of the workload table shrunk so that a pass
// takes milliseconds: a hundredth of the jobs, one trace per pass and
// no golden digest.
func small() []workload {
	out := make([]workload, len(workloads))
	for i, w := range workloads {
		w.jobs = max(w.jobs/100, 40)
		w.reps = 1
		w.golden = ""
		out[i] = w
	}
	return out
}

// fixedCalib stands in for the calibration kernel, which is slow under
// the race detector.
func fixedCalib() float64 { return calibRef }

// tickingTiming is a deterministic clock that advances 7 ns on every
// reading.
func tickingTiming() timing {
	var mc perf.ManualClock
	return timing{clock: func() int64 {
		mc.Advance(7)
		return mc.Now()
	}, calibrate: fixedCalib}
}

// monotonic is the real clock with the fixed calibration.
func monotonic() timing { return timing{clock: perf.Monotonic(), calibrate: fixedCalib} }

// invoke runs the command against a table with the given clock.
func invoke(t *testing.T, table []workload, tm timing, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	w, e := cli.Wrap(&out), cli.Wrap(&errb)
	code = pjsperf(args, table, tm, w, e)
	return code, out.String(), errb.String()
}

// lastLine decodes the result line a -workload run ends with.
func lastLine(t *testing.T, stdout string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout)
	}
	return r
}

func TestTableMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the table %q: %q", i, b.Workloads[i], w.name, w.why)
		}
		if !valid.MatchString(w.name) {
			t.Errorf("workload name %q is not [A-Za-z0-9_.-]+", w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the table %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the table %+v", i, got, m)
		}
		if !valid.MatchString(m.name) || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %+v: bad name or bound", m)
		}
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the table %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the table %+v", i, got, m)
		}
		if !valid.MatchString(m.name) {
			t.Errorf("per-layer name %q is not [A-Za-z0-9_.-]+", m.name)
		}
	}
}

func TestSelfTimesSumToWall(t *testing.T) {
	for _, w := range small() {
		r, err := newRun(w, 1, tickingTiming())
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			ps := r.pass(traced)
			var sum int64
			for _, s := range ps.tr.self {
				sum += s
			}
			if sum != ps.rawWall || ps.rawWall == 0 {
				t.Errorf("%s traced=%v: self times sum to %d, wall is %d", w.name, traced, sum, ps.rawWall)
			}
		}
		if r.failed != 0 {
			t.Errorf("%s: %v", w.name, r.errs)
		}
	}
}

func TestTracedRunsMatchUntracedDigests(t *testing.T) {
	for _, w := range small() {
		plain, err := newRun(w, 2, monotonic())
		if err != nil {
			t.Fatal(err)
		}
		plain.pass(false)
		traced, err := newRun(w, 2, monotonic())
		if err != nil {
			t.Fatal(err)
		}
		traced.pass(true)
		traced.pass(false) // checked against the traced pass's outputs
		if plain.digest != traced.digest || plain.digest == 0 || traced.failed != 0 {
			t.Errorf("%s: untraced digest %016x, traced %016x, errors %v", w.name, plain.digest, traced.digest, traced.errs)
		}
	}
}

func TestWrongGoldenFailsEveryCell(t *testing.T) {
	table := small()[:1]
	table[0].golden = "0000000000000000"
	code, stdout, stderr := invoke(t, table, monotonic(),
		"-workload", table[0].name, "-seed", "1", "-seconds", "1", "-trace", "0")
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr)
	}
	r := lastLine(t, stdout)
	if r.Correct || r.Attempted == 0 || r.Failed != r.Attempted {
		t.Errorf("result %+v, want every attempted cell failed", r)
	}
	if !strings.Contains(stderr, "golden") {
		t.Errorf("stderr does not name the golden digest:\n%s", stderr)
	}

	// Any other seed has no golden value and only has to agree with
	// itself across passes.
	code, stdout, _ = invoke(t, table, monotonic(),
		"-workload", table[0].name, "-seed", "5", "-seconds", "1", "-trace", "0")
	if r := lastLine(t, stdout); code != 0 || !r.Correct {
		t.Errorf("seed 5: exit %d, result %+v", code, r)
	}
}

func TestResultLineHasEveryMetric(t *testing.T) {
	table := small()
	for _, tc := range []struct {
		trace string
		want  []metric
	}{{"0", endToEnd}, {"1", perLayer}} {
		code, stdout, stderr := invoke(t, table, monotonic(),
			"--workload", "observed-sweep", "--seed", "3", "--seconds", "1", "--trace", tc.trace)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", tc.trace, code, stderr)
		}
		r := lastLine(t, stdout)
		if !r.Correct || len(r.Metrics) != len(tc.want) {
			t.Errorf("trace %s: result %+v", tc.trace, r)
		}
		for _, m := range tc.want {
			if v, ok := r.Metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("trace %s: metric %s missing or with unit %q", tc.trace, m.name, v.Unit)
			}
		}
	}
}

func TestSuiteWritesValidSpanFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "suite.json")
	code, stdout, stderr := invoke(t, small(), monotonic(), "-suite", "-seconds", "1", "-trace", "1", "-out", out)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout, stderr)
	}
	rep, err := loadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("report has %d workloads", len(rep.Workloads))
	}
	for _, w := range rep.Workloads {
		if len(w.Layers) != len(perLayer) {
			t.Errorf("%s: %d layer metrics, want %d", w.Name, len(w.Layers), len(perLayer))
		}
	}
	data, err := os.ReadFile(filepath.Join(filepath.Dir(out), "suite.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := obs.ValidateTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Slices == 0 || st.Tracks != len(workloads) {
		t.Errorf("span file: %d slices on %d tracks", st.Slices, st.Tracks)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 8}, 3, 6, 9},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
