package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pjs/internal/fault"
	"pjs/internal/metrics"
	"pjs/internal/workload"
)

func memoRunner(t *testing.T, dir string) *Runner {
	t.Helper()
	return NewRunner(Config{
		Jobs:    120,
		Seed:    5,
		MemoDir: dir,
		Warnf:   func(format string, args ...any) { t.Logf("warn: "+format, args...) },
	})
}

// resultFingerprint summarizes everything the experiment layer consumes
// from a Result, so a recalled memo proving equal fingerprints proves
// the cache is transparent.
func resultFingerprint(r *Runner, sc Scheme) string {
	res := r.Result("SDSC", workload.EstimateAccurate, 100, sc, true)
	sum := metrics.FromResult(res, metrics.All)
	return fmt.Sprintf("trace=%s sched=%s util=%.6f utilLoaded=%.6f span=%d-%d susp=%d jobs=%d sd=%.6f tat=%.3f wait=%.3f",
		res.Trace, res.Scheduler, res.Utilization, res.UtilizationLoaded,
		res.Start, res.End, res.Suspensions, len(res.Jobs),
		sum.Overall.MeanSlowdown, sum.Overall.MeanTurnaround, sum.Overall.MeanWait)
}

func TestMemoRoundTripIsTransparent(t *testing.T) {
	dir := t.TempDir()
	fresh := resultFingerprint(memoRunner(t, dir), SS(2))

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !strings.HasSuffix(ents[0].Name(), ".memo") {
		t.Fatalf("expected one .memo file, got %v", ents)
	}

	recalled := resultFingerprint(memoRunner(t, dir), SS(2))
	if recalled != fresh {
		t.Errorf("memoized result differs from fresh run:\n fresh:    %s\n recalled: %s", fresh, recalled)
	}
}

func TestMemoCorruptEntryRegenerated(t *testing.T) {
	dir := t.TempDir()
	fresh := resultFingerprint(memoRunner(t, dir), SS(2))

	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected one memo file: %v %v", ents, err)
	}
	path := filepath.Join(dir, ents[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before, _ := os.Stat(path)

	recalled := resultFingerprint(memoRunner(t, dir), SS(2))
	if recalled != fresh {
		t.Errorf("regenerated result differs from fresh run:\n fresh:       %s\n regenerated: %s", fresh, recalled)
	}
	// The corrupt entry must have been rewritten with a valid one.
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) && before.Size() == after.Size() {
		data2, _ := os.ReadFile(path)
		if string(data2) == string(data) {
			t.Error("corrupt memo entry was left in place, not regenerated")
		}
	}
	if _, ok := memoRunner(t, dir).loadMemo(memoRunner(t, dir).memoKey(runKey{
		tk: traceKey{"SDSC", workload.EstimateAccurate, 100}, scheme: SS(2).Label, overhead: true,
	})); !ok {
		t.Error("regenerated memo entry does not validate")
	}
}

// TestMemoKeyMismatchIsMiss: an entry written under a different
// configuration (here: another seed) must not be recalled even if it
// lands at the same path.
func TestMemoKeyMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	a := memoRunner(t, dir)
	_ = resultFingerprint(a, SS(2))
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("expected one memo file, got %d", len(ents))
	}

	// A runner with a different seed hashes to a different path; force
	// the collision by renaming the old entry onto the new path.
	b := NewRunner(Config{Jobs: 120, Seed: 6, MemoDir: dir})
	bk := b.memoKey(runKey{tk: traceKey{"SDSC", workload.EstimateAccurate, 100}, scheme: SS(2).Label, overhead: true})
	if err := os.Rename(filepath.Join(dir, ents[0].Name()), b.memoPath(bk)); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.loadMemo(bk); ok {
		t.Error("memo entry for seed 5 was recalled for seed 6")
	}
}

// TestMemoFaultConfigsNeverCollide: two configurations that differ ONLY
// in fault settings must neither share a memo path nor recall each
// other's entries — a cached fault-free run must never answer for a
// fault-injected one (or vice versa), across both fault families and
// every transient knob.
func TestMemoFaultConfigsNeverCollide(t *testing.T) {
	dir := t.TempDir()
	rk := runKey{tk: traceKey{"SDSC", workload.EstimateAccurate, 100}, scheme: SS(2).Label, overhead: true}
	base := Config{Jobs: 120, Seed: 5, MemoDir: dir}
	variants := []struct {
		name string
		cfg  Config
	}{
		{"procfaults", func() Config {
			c := base
			c.Faults = fault.Config{MTBF: 300 * 3600, MTTR: 2 * 3600, Seed: 5}
			return c
		}()},
		{"procfaults-other-seed", func() Config {
			c := base
			c.Faults = fault.Config{MTBF: 300 * 3600, MTTR: 2 * 3600, Seed: 6}
			return c
		}()},
		{"transient", func() Config {
			c := base
			c.Transient = fault.TransientConfig{WriteFailProb: 0.2, ReadFailProb: 0.2, Seed: 5}
			return c
		}()},
		{"transient-other-prob", func() Config {
			c := base
			c.Transient = fault.TransientConfig{WriteFailProb: 0.2, ReadFailProb: 0.3, Seed: 5}
			return c
		}()},
		{"transient-other-backoff", func() Config {
			c := base
			c.Transient = fault.TransientConfig{WriteFailProb: 0.2, ReadFailProb: 0.2, Seed: 5, BackoffBase: 60}
			return c
		}()},
	}
	baseRunner := NewRunner(base)
	baseKey := baseRunner.memoKey(rk)
	basePath := baseRunner.memoPath(baseKey)
	seenPaths := map[string]string{basePath: "base"}
	// Write a genuine base entry so a colliding recall would succeed.
	_ = resultFingerprint(memoRunner(t, dir), SS(2))
	for _, v := range variants {
		r := NewRunner(v.cfg)
		mk := r.memoKey(rk)
		if mk == baseKey {
			t.Errorf("%s: memo key equals the fault-free key", v.name)
		}
		path := r.memoPath(mk)
		if prev, dup := seenPaths[path]; dup {
			t.Errorf("%s: memo path collides with %s: %s", v.name, prev, path)
		}
		seenPaths[path] = v.name
		// Even under a forced path collision the in-file key must miss.
		if err := os.Rename(basePath, path); err != nil {
			t.Fatal(err)
		}
		if _, ok := r.loadMemo(mk); ok {
			t.Errorf("%s: fault-free memo entry was recalled for a faulty configuration", v.name)
		}
		if err := os.Rename(path, basePath); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemoKeyJSONBackCompat pins the no-fault key serialization: every
// fault field is omitempty, so the key JSON — and hence the filename
// hash — of a fault-free run must be byte-identical to the pre-fault
// schema, keeping existing caches valid.
func TestMemoKeyJSONBackCompat(t *testing.T) {
	r := NewRunner(Config{Jobs: 120, Seed: 5, MemoDir: t.TempDir()})
	mk := r.memoKey(runKey{tk: traceKey{"SDSC", workload.EstimateAccurate, 100}, scheme: "SF = 2", overhead: true})
	got, err := json.Marshal(mk)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"model":"SDSC","est":0,"load_pct":100,"scheme":"SF = 2","overhead":true,"jobs":120,"seed":5,"max_steps":200000000}`
	if string(got) != want {
		t.Errorf("no-fault memo key JSON changed (existing caches invalidated):\n got:  %s\n want: %s", got, want)
	}
}

// TestMemoKeyJSONWithFaults pins the key of a run with every fault
// knob set to the bytes, and the file name, it had when the key spelled
// each knob as a flat field of its own: caches written then stay valid.
func TestMemoKeyJSONWithFaults(t *testing.T) {
	r := NewRunner(Config{Jobs: 120, Seed: 5, MemoDir: "cache",
		Faults: fault.Config{MTBF: 1800000, MTTR: 7200, Seed: 7},
		Transient: fault.TransientConfig{WriteFailProb: 0.3, ReadFailProb: 0.2, Seed: 5, MaxAttempts: 6,
			BackoffBase: 10, BackoffCap: 90, FailFirst: 2, HealthWindow: 1200, HealthThreshold: 2}})
	mk := r.memoKey(runKey{tk: traceKey{"SDSC", workload.EstimateAccurate, 100}, scheme: "SF = 2", overhead: true})
	got, err := json.Marshal(mk)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"model":"SDSC","est":0,"load_pct":100,"scheme":"SF = 2","overhead":true,"jobs":120,"seed":5,"max_steps":200000000,` +
		`"mtbf":1800000,"mttr":7200,"fault_seed":7,"io_write_fail":0.3,"io_read_fail":0.2,"io_seed":5,"io_max_attempts":6,` +
		`"io_backoff_base":10,"io_backoff_cap":90,"io_fail_first":2,"io_health_window":1200,"io_health_thresh":2}`
	if string(got) != want {
		t.Errorf("fault memo key JSON changed (existing caches invalidated):\n got:  %s\n want: %s", got, want)
	}
	if p, want := r.memoPath(mk), filepath.Join("cache", "SDSC_SF---2_683eb58bd3cc46ee.memo"); p != want {
		t.Errorf("memo path = %s, want %s", p, want)
	}
}

func TestMemoSaveFailureWarnsButSucceeds(t *testing.T) {
	warned := false
	r := NewRunner(Config{
		Jobs:    50,
		Seed:    5,
		MemoDir: "/nonexistent/memo/dir",
		Warnf:   func(string, ...any) { warned = true },
	})
	res := r.Result("SDSC", workload.EstimateAccurate, 100, NS(), false)
	if res == nil || len(res.Jobs) != 50 {
		t.Fatal("run failed under an unwritable memo dir")
	}
	if !warned {
		t.Error("no warning for the failed memo save")
	}
}
