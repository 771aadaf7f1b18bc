package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pjs"
	"pjs/internal/ckpt"
	"pjs/internal/metrics"
	"pjs/internal/policy"
)

// TestRunErrorPaths drives every user-input failure through run() and
// asserts a non-zero exit code plus a friendly stderr message — the CLI
// must never panic on bad input, including fault configurations that
// leave the workload permanently unfinishable.
func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"undefined flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"malformed flag value", []string{"-jobs", "many"}, 2, "invalid value"},
		{"unknown model", []string{"-model", "LANL"}, 1, `unknown model "LANL"`},
		{"unknown scheduler", []string{"-sched", "lottery"}, 1, "unknown scheduler"},
		{"bad suspension factor", []string{"-sched", "ss:0.5"}, 1, "must be ≥ 1"},
		{"argument to a policy without one", []string{"-sched", "fcfs:3"}, 1, "fcfs takes no argument"},
		{"unknown filter", []string{"-filter", "great"}, 1, `unknown -filter "great"`},
		{"unknown estimates", []string{"-estimates", "psychic"}, 1, `unknown estimate mode "psychic"`},
		{"negative mtbf", []string{"-mtbf", "-1"}, 1, "-mtbf and -mttr must be"},
		{"negative mttr", []string{"-mtbf", "1", "-mttr", "-2"}, 1, "-mtbf and -mttr must be"},
		{"missing trace file", []string{"-trace", "/nonexistent/x.swf"}, 1, "no such file"},
		{"unwritable dump", []string{"-jobs", "5", "-dump", "/nonexistent/dir/out.csv"}, 1, "no such file"},
		{"missing resume file", []string{"-resume", "/nonexistent/run.ckpt"}, 1, "no such file"},
		{
			// Permanent failures (MTTR 0) with a 36 s per-processor MTBF
			// kill the whole machine long before the trace drains; the
			// engine must abort with the unfinishable-job error, not spin.
			"unfinishable fault config",
			[]string{"-jobs", "30", "-sched", "fcfs", "-mtbf", "0.01", "-mttr", "0"},
			1,
			"wider than the surviving machine",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Errorf("exit code = %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr = %q, want substring %q", stderr.String(), tc.want)
			}
		})
	}
}

// TestRunHappyPath sanity-checks a tiny real run through the CLI entry
// point, including the fault summary line gated on -mtbf and the
// atomically written -dump CSV.
func TestRunHappyPath(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "jobs.csv")
	var stdout, stderr strings.Builder
	code := run([]string{"-jobs", "50", "-sched", "ns", "-verify", "-dump", dump}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "invariants: ok") || !strings.Contains(out, "scheduler=NS") {
		t.Errorf("unexpected stdout:\n%s", out)
	}
	if strings.Contains(out, "faults:") {
		t.Errorf("fault summary printed without -mtbf:\n%s", out)
	}
	if data, err := os.ReadFile(dump); err != nil || len(data) == 0 {
		t.Errorf("-dump file missing or empty: %v", err)
	}

	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-jobs", "50", "-sched", "ns", "-mtbf", "200", "-mttr", "2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("faulty run exit code = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "faults: failures=") {
		t.Errorf("no fault summary line with -mtbf set:\n%s", stdout.String())
	}
}

// TestVerifyMigratable checks that -verify accepts the migratable SS
// variant, whose resumes leave the remembered processor set by design.
func TestVerifyMigratable(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-jobs", "300", "-sched", "ssmig:2", "-overhead", "-verify", "-counters"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "invariants: ok") {
		t.Errorf("no invariants line:\n%s", stdout.String())
	}
}

// TestInterruptCheckpointResume is the CLI-level crash-equivalence
// check: a run killed by the -max-wall watchdog exits 3 with a saved
// checkpoint, and resuming it reproduces the uninterrupted run's
// stdout byte for byte — with and without fault injection, whose
// options the checkpoint must carry.
func TestInterruptCheckpointResume(t *testing.T) {
	cases := []struct {
		name  string
		extra []string
		lines []string // stdout lines the run must print
	}{
		{"no faults", nil, nil},
		{"faults and transient io", []string{"-mtbf", "500", "-mttr", "2", "-fault-seed", "3",
			"-io-write-fail", "0.3", "-io-read-fail", "0.3", "-io-seed", "3",
			"-io-max-attempts", "3", "-io-backoff-base", "20", "-io-backoff-cap", "200",
			"-io-health-window", "1800", "-io-health-thresh", "2"},
			[]string{"faults: ", "transient-io: "}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			common := append([]string{"-jobs", "150", "-seed", "3", "-sched", "ss:2", "-overhead", "-verify"}, tc.extra...)

			var fullOut, fullErr strings.Builder
			if code := run(common, &fullOut, &fullErr); code != 0 {
				t.Fatalf("reference run: exit %d, stderr: %s", code, fullErr.String())
			}
			for _, l := range tc.lines {
				if !strings.Contains(fullOut.String(), "\n"+l) {
					t.Errorf("reference run prints no %q line:\n%s", l, fullOut.String())
				}
			}

			var intOut, intErr strings.Builder
			args := append(append([]string{}, common...),
				"-ckpt-every", "500", "-ckpt-dir", dir, "-max-wall", "1ns")
			if code := run(args, &intOut, &intErr); code != 3 {
				t.Fatalf("interrupted run: exit %d, want 3 (stderr: %s)", code, intErr.String())
			}
			ckptPath := filepath.Join(dir, "psim.ckpt")
			if !strings.Contains(intErr.String(), "checkpoint saved") ||
				!strings.Contains(intErr.String(), "-resume "+ckptPath) {
				t.Errorf("interrupt diagnostics missing resume hint:\n%s", intErr.String())
			}
			if fi, err := os.Stat(ckptPath); err != nil || fi.Size() == 0 {
				t.Fatalf("checkpoint file missing or empty: %v", err)
			}

			var resOut, resErr strings.Builder
			if code := run([]string{"-resume", ckptPath, "-verify"}, &resOut, &resErr); code != 0 {
				t.Fatalf("resumed run: exit %d, stderr: %s", code, resErr.String())
			}
			if !strings.Contains(resErr.String(), "resuming") {
				t.Errorf("no resume notice on stderr:\n%s", resErr.String())
			}
			if resOut.String() != fullOut.String() {
				t.Errorf("resumed stdout differs from uninterrupted run:\n--- full ---\n%s\n--- resumed ---\n%s",
					fullOut.String(), resOut.String())
			}
		})
	}
}

// TestCheckpointSaveFailureWarnsAndContinues: a run whose periodic
// checkpoint cannot be written (here the target path is blocked by a
// directory, which defeats the atomic rename even for root) must warn
// once on stderr and finish normally with exit 0 — a broken disk costs
// resumability, never the run.
func TestCheckpointSaveFailureWarnsAndContinues(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "psim.ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	code := run([]string{"-jobs", "80", "-sched", "ss:2", "-overhead",
		"-ckpt-every", "100", "-ckpt-dir", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "scheduler=SS(SF=2)") {
		t.Errorf("normal report missing from stdout:\n%s", stdout.String())
	}
	warns := strings.Count(stderr.String(), "checkpoint save failed")
	if warns != 1 {
		t.Errorf("want exactly one save-failure warning, got %d:\n%s", warns, stderr.String())
	}
}

// TestInterruptWithFailedSaveFailsHard: the interrupt path depends on
// the checkpoint being on disk, so an interrupted run whose final save
// failed must exit 1 with a clear message instead of falsely claiming
// exit 3 with a saved checkpoint.
func TestInterruptWithFailedSaveFailsHard(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "psim.ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	code := run([]string{"-jobs", "150", "-sched", "ss:2", "-overhead",
		"-ckpt-every", "500", "-ckpt-dir", dir, "-max-wall", "1ns"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "final checkpoint save failed") {
		t.Errorf("no hard failure message for the lost final checkpoint:\n%s", stderr.String())
	}
	if strings.Contains(stderr.String(), "checkpoint saved") {
		t.Errorf("stderr falsely claims a saved checkpoint:\n%s", stderr.String())
	}
}

// TestTransientFlagsSummaryLine: the transient-io stats line is gated
// on the transient flags exactly as the faults line is gated on -mtbf.
func TestTransientFlagsSummaryLine(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-jobs", "120", "-sched", "ss:2", "-overhead", "-verify",
		"-io-write-fail", "0.3", "-io-read-fail", "0.3"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "transient-io: retries=") {
		t.Errorf("no transient-io summary line with the flags set:\n%s", out)
	}
	if !strings.Contains(out, "invariants: ok") {
		t.Errorf("-verify failed under transient faults:\n%s", out)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-jobs", "50", "-sched", "ns"}, &stdout, &stderr); code != 0 {
		t.Fatalf("plain run exit code = %d", code)
	}
	if strings.Contains(stdout.String(), "transient-io:") {
		t.Errorf("transient-io line printed without the flags:\n%s", stdout.String())
	}
	if code := run([]string{"-jobs", "50", "-sched", "ns", "-io-write-fail", "1.5"}, &stdout, &stderr); code != 1 {
		t.Errorf("out-of-range -io-write-fail accepted (exit %d)", code)
	}
}

// TestTraceOutDigest pins the bytes of the Perfetto export: a plain
// SS run with the counter tracks, and one under processor faults and
// transient I/O faults, whose down and io-degraded spans (some still
// open at the end of the run) are rendered too.
func TestTraceOutDigest(t *testing.T) {
	base := []string{"-model", "SDSC", "-jobs", "300", "-sched", "ss:2", "-overhead"}
	cases := []struct {
		name  string
		extra []string
		want  string
	}{
		{"counters", []string{"-counters"}, "94ef2fa8013bb9b613aba163f4442e2c4e627053474041e6f0cc5bcafe2a9ce8"},
		{"faults and transient io", []string{"-mtbf", "500", "-mttr", "2", "-fault-seed", "7",
			"-io-write-fail", "0.05", "-io-read-fail", "0.05", "-io-health-thresh", "1"},
			"7786c16cd60e6695d99e7dc1734032d1400b1896ac74414a7efbb41ad00cb93f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "trace.json")
			args := append(append(append([]string(nil), base...), tc.extra...), "-trace-out", out)
			var stdout, stderr strings.Builder
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("trace sha256 = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestTimeSeriesOutDigest pins the bytes of the -timeseries-out CSV of
// a plain SS run, written alone and written beside -trace-out, where
// it comes from the trace builder's census instead of a sampler of its
// own; the trace is pinned by TestTraceOutDigest.
func TestTimeSeriesOutDigest(t *testing.T) {
	const want = "028f68f6778e5f3a08c94f0603a18fa21f9c40ecbee93d459437d53e485fa9bf"
	base := []string{"-model", "SDSC", "-jobs", "300", "-sched", "ss:2", "-overhead", "-counters"}
	for _, withTrace := range []bool{false, true} {
		dir := t.TempDir()
		csv := filepath.Join(dir, "ts.csv")
		args := append(append([]string(nil), base...), "-timeseries-out", csv)
		if withTrace {
			args = append(args, "-trace-out", filepath.Join(dir, "trace.json"))
		}
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %v: exit code = %d, stderr: %s", withTrace, code, stderr.String())
		}
		data, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("trace %v: time series sha256 = %s, want %s", withTrace, got, want)
		}
	}
}

// TestSchedUsageListsTable checks that -h renders every policy row in
// the -sched help, with psim's default spec.
func TestSchedUsageListsTable(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-h"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-h exit code = %d", code)
	}
	want := "scheduler spec, one of:\n    \t" + strings.ReplaceAll(policy.Usage(), "\n", "\n    \t") +
		" (default \"tss:2\")"
	if !strings.Contains(stderr.String(), want) {
		t.Errorf("-sched help is not the rendered table:\n%s\nwant:\n%s", stderr.String(), want)
	}
}

// TestResumeRejectsBadCheckpoints: corruption, version skew and a
// mismatched watermark must each fail loudly, never silently resume.
func TestResumeRejectsBadCheckpoints(t *testing.T) {
	dir := t.TempDir()

	save := func(name string, c *ckpt.Checkpoint) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := c.Save(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := &ckpt.Checkpoint{
		Workload: ckpt.WorkloadSpec{Kind: ckpt.KindSynthetic, Model: "SDSC", Jobs: 30, Seed: 1, Estimates: "accurate", Load: 1},
		Sched:    "fcfs",
	}

	t.Run("corrupt", func(t *testing.T) {
		path := save("corrupt.ckpt", good)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr strings.Builder
		if code := run([]string{"-resume", path}, &stdout, &stderr); code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
		if !strings.Contains(stderr.String(), "corrupt") {
			t.Errorf("stderr should name the corruption: %s", stderr.String())
		}
	})

	t.Run("version skew", func(t *testing.T) {
		path := filepath.Join(dir, "future.ckpt")
		if err := os.WriteFile(path, ckpt.Seal("pjsckpt", 99, []byte("{}")), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr strings.Builder
		if code := run([]string{"-resume", path}, &stdout, &stderr); code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
		if !strings.Contains(stderr.String(), "v99") {
			t.Errorf("stderr should name the version skew: %s", stderr.String())
		}
	})

	t.Run("mismatched watermark", func(t *testing.T) {
		bad := *good
		bad.Events = 10
		bad.AuditHash = 0xdeadbeef
		bad.AuditEntries = 3
		path := save("mismatch.ckpt", &bad)
		var stdout, stderr strings.Builder
		if code := run([]string{"-resume", path}, &stdout, &stderr); code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
		if !strings.Contains(stderr.String(), "does not match checkpoint watermark") {
			t.Errorf("stderr should report the watermark mismatch: %s", stderr.String())
		}
	})
}

func TestSummaryTableShapes(t *testing.T) {
	tr := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 300, Seed: 5})
	s, _ := pjs.NewScheduler("ns")
	sum := metrics.FromResult(pjs.Simulate(tr, s, pjs.Options{}), metrics.All)

	full := summaryTable(sum, false).Render()
	if !strings.Contains(full, "VS-Seq") || !strings.Contains(full, "VL-VW") {
		t.Errorf("16-way table rows missing:\n%s", full)
	}
	coarse := summaryTable(sum, true).Render()
	for _, want := range []string{"SN", "SW", "LN", "LW"} {
		if !strings.Contains(coarse, want) {
			t.Errorf("4-way table missing %s:\n%s", want, coarse)
		}
	}
	if !strings.Contains(full, "mean sd") || !strings.Contains(full, "worst tat") {
		t.Errorf("metric columns missing:\n%s", full)
	}
}

// TestPerfFlag checks the hot-path profiling satellite: -perf prints a
// per-phase summary with throughput to stderr while stdout stays
// byte-identical to the unprofiled run — the deterministic report
// stream must not know profiling exists.
func TestPerfFlag(t *testing.T) {
	var plainOut, plainErr strings.Builder
	if code := run([]string{"-jobs", "80", "-sched", "ss:2"}, &plainOut, &plainErr); code != 0 {
		t.Fatalf("plain run exit code = %d, stderr: %s", code, plainErr.String())
	}
	var perfOut, perfErr strings.Builder
	if code := run([]string{"-jobs", "80", "-sched", "ss:2", "-perf"}, &perfOut, &perfErr); code != 0 {
		t.Fatalf("-perf run exit code = %d, stderr: %s", code, perfErr.String())
	}
	if plainOut.String() != perfOut.String() {
		t.Error("-perf changed stdout; profiling must stay out of the report stream")
	}
	es := perfErr.String()
	for _, want := range []string{"perf summary", "events/sec=", "queue-scan"} {
		if !strings.Contains(es, want) {
			t.Errorf("-perf stderr missing %q:\n%s", want, es)
		}
	}
	if strings.Contains(plainErr.String(), "events/sec=") {
		t.Error("perf summary printed without -perf")
	}
}
