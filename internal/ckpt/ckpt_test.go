package ckpt

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pjs/internal/fault"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

func TestSealOpenRoundTrip(t *testing.T) {
	payload := []byte(`{"hello":"world"}`)
	data := Seal("pjstest", 3, payload)
	back, err := Open("pjstest", 3, data)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(payload) {
		t.Errorf("payload round trip: got %q want %q", back, payload)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	data := Seal("pjstest", 1, []byte("payload bytes"))
	// Flip one payload byte: the checksum must catch it.
	for _, i := range []int{0, len(data) / 2, len(data) - crcTrailerLen - 1} {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, err := Open("pjstest", 1, bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flipped byte %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	// Truncation in every prefix length must be rejected, not crash.
	for n := 0; n < len(data); n++ {
		if _, err := Open("pjstest", 1, data[:n]); err == nil {
			t.Errorf("truncated to %d bytes: accepted", n)
		}
	}
}

func TestOpenRejectsVersionSkew(t *testing.T) {
	data := Seal("pjstest", 2, []byte("x"))
	if _, err := Open("pjstest", 1, data); !errors.Is(err, ErrVersion) {
		t.Errorf("version skew: err = %v, want ErrVersion", err)
	}
	if _, err := Open("other", 2, data); !errors.Is(err, ErrCorrupt) {
		t.Errorf("kind mismatch: err = %v, want ErrCorrupt", err)
	}
}

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	c := &Checkpoint{
		Workload: WorkloadSpec{Kind: KindSynthetic, Model: "SDSC", Jobs: 500, Seed: 7, Estimates: "accurate", Load: 1.3},
		Sched:    "ss:2",
		Opt:      OptSpec{Overhead: true, Config: fault.Config{MTBF: 3600, MTTR: 600, Seed: 5}},
		Snapshot: sched.Snapshot{
			Events: 123456,
			Now:    987654321,
			// Extremes prove the uint64 hash survives the JSON round trip
			// without float truncation.
			AuditHash:    0xfedcba9876543210,
			AuditEntries: 4242,
		},
	}
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if *back != *c {
		t.Errorf("round trip:\n got %+v\nwant %+v", back, c)
	}
}

func TestLoadRejectsTamperedCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	c := &Checkpoint{Workload: WorkloadSpec{Kind: KindSynthetic, Model: "KTH", Jobs: 10}, Sched: "fcfs", Snapshot: sched.Snapshot{Events: 9}}
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// An attacker-free but realistic failure: a partially flushed page
	// of zeros in the middle of the file.
	bad := append([]byte(nil), data...)
	copy(bad[len(bad)/2:], make([]byte, 8))
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tampered checkpoint: err = %v, want ErrCorrupt", err)
	}
}

func TestWriteAtomicFailureLeavesTargetAndNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := WriteFileAtomic(path, []byte("good content")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk exploded")
	err := WriteAtomic(path, func(w io.Writer) error {
		if _, werr := io.WriteString(w, "partial gar"); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the write callback's error", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != "good content" {
		t.Errorf("failed write clobbered the target: %q", got)
	}
	ents, derr := os.ReadDir(dir)
	if derr != nil {
		t.Fatal(derr)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind after failure", e.Name())
		}
	}
}

func TestWorkloadSpecBuildSynthetic(t *testing.T) {
	spec := &WorkloadSpec{Kind: KindSynthetic, Model: "SDSC", Jobs: 200, Seed: 1, Estimates: "accurate"}
	tr, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Procs != 128 || len(tr.Jobs) != 200 {
		t.Errorf("procs=%d jobs=%d, want 128/200", tr.Procs, len(tr.Jobs))
	}
	// Two builds of the same spec must be the same workload: pin job
	// identity fields, which is what replay determinism rests on.
	tr2, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Jobs {
		a, b := tr.Jobs[i], tr2.Jobs[i]
		if a.ID != b.ID || a.SubmitTime != b.SubmitTime || a.RunTime != b.RunTime ||
			a.Estimate != b.Estimate || a.Procs != b.Procs {
			t.Fatalf("job %d differs between identical builds: %v vs %v", i, a, b)
		}
	}
}

func TestWorkloadSpecBuildErrors(t *testing.T) {
	cases := []struct {
		name string
		spec WorkloadSpec
		want string
	}{
		{"unknown model", WorkloadSpec{Kind: KindSynthetic, Model: "LANL", Jobs: 5}, "unknown model"},
		{"unknown estimates", WorkloadSpec{Kind: KindSynthetic, Model: "CTC", Jobs: 5, Estimates: "psychic"}, "unknown estimate mode"},
		{"no jobs", WorkloadSpec{Kind: KindSynthetic, Model: "CTC"}, "positive job count"},
		{"missing file", WorkloadSpec{Kind: KindSWF, File: "/does/not/exist.swf"}, "no such file"},
		{"unknown kind", WorkloadSpec{Kind: "punchcards"}, "unknown workload kind"},
	}
	for _, c := range cases {
		spec := c.spec
		_, err := spec.Build()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestWorkloadSpecSWFFingerprint(t *testing.T) {
	tr := workload.Generate(workload.KTH(), workload.GenOptions{Jobs: 30, Seed: 4})
	path := filepath.Join(t.TempDir(), "trace.swf")
	err := WriteAtomic(path, func(w io.Writer) error { return workload.WriteSWF(w, tr) })
	if err != nil {
		t.Fatal(err)
	}
	spec := &WorkloadSpec{Kind: KindSWF, File: path}
	back, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != 30 {
		t.Errorf("jobs = %d, want 30", len(back.Jobs))
	}
	if spec.FileHash == 0 {
		t.Fatal("first build did not record the file fingerprint")
	}
	// Rebuild with the recorded fingerprint: same bytes, accepted.
	if _, err := spec.Build(); err != nil {
		t.Fatalf("unchanged file rejected: %v", err)
	}
	// Append one job's worth of noise: resume must refuse.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Build(); err == nil || !strings.Contains(err.Error(), "changed since the checkpoint") {
		t.Errorf("edited trace file accepted on resume: err = %v", err)
	}
}

func TestOptSpecOptions(t *testing.T) {
	opt := OptSpec{Overhead: true, Contiguous: true, MaxSteps: 99, Config: fault.Config{MTBF: 100, MTTR: 7, Seed: 3}}.Options()
	if opt.Overhead == nil || !opt.ContiguousAlloc || opt.MaxSteps != 99 {
		t.Errorf("options not expanded: %+v", opt)
	}
	if !opt.Faults.Enabled() || opt.Faults.MTTR != 7 || opt.Faults.Seed != 3 {
		t.Errorf("faults not expanded: %+v", opt.Faults)
	}
	none := OptSpec{}.Options()
	if none.Overhead != nil || none.Faults.Enabled() {
		t.Errorf("zero spec expanded to non-zero options: %+v", none)
	}
	if none.Transient.Enabled() {
		t.Errorf("zero spec expanded to enabled transient faults: %+v", none.Transient)
	}

	trans := OptSpec{TransientConfig: fault.TransientConfig{
		WriteFailProb: 0.2, ReadFailProb: 0.1, Seed: 4, MaxAttempts: 6,
		BackoffBase: 10, BackoffCap: 90, HealthWindow: 1200, HealthThreshold: 2,
	}}.Options().Transient
	if !trans.Enabled() || trans.WriteFailProb != 0.2 || trans.ReadFailProb != 0.1 ||
		trans.Seed != 4 || trans.MaxAttempts != 6 || trans.BackoffBase != 10 ||
		trans.BackoffCap != 90 || trans.HealthWindow != 1200 || trans.HealthThreshold != 2 {
		t.Errorf("transient config not expanded: %+v", trans)
	}
}

// psimCheckpoint is the checkpoint psim writes for
//
//	psim -model SDSC -jobs 300 -sched ss:2 -overhead -mtbf 500 -mttr 2 \
//	  -fault-seed 7 -io-write-fail 0.3 -io-read-fail 0.2 -io-seed 5 \
//	  -io-max-attempts 6 -io-backoff-base 10 -io-backoff-cap 90 \
//	  -io-health-window 1200 -io-health-thresh 2
//
// at a made-up watermark, and psimCheckpointBytes its encoding when
// OptSpec still spelled every fault knob as a flat field of its own.
var psimCheckpoint = Checkpoint{
	Workload: WorkloadSpec{Kind: KindSynthetic, Model: "SDSC", Jobs: 300, Seed: 1, Estimates: "accurate", Load: 1},
	Sched:    "ss:2",
	Opt: OptSpec{
		Overhead: true,
		Config:   fault.Config{MTBF: 500 * 3600, MTTR: 2 * 3600, Seed: 7},
		TransientConfig: fault.TransientConfig{WriteFailProb: 0.3, ReadFailProb: 0.2, Seed: 5,
			MaxAttempts: 6, BackoffBase: 10, BackoffCap: 90, HealthWindow: 1200, HealthThreshold: 2},
	},
	Snapshot: sched.Snapshot{Events: 1234, Now: 5678, AuditHash: 42, AuditEntries: 99},
}

const psimCheckpointBytes = `pjsckpt v1
{
  "workload": {
    "kind": "synthetic",
    "model": "SDSC",
    "jobs": 300,
    "seed": 1,
    "estimates": "accurate",
    "load": 1
  },
  "sched": "ss:2",
  "opt": {
    "overhead": true,
    "mtbf": 1800000,
    "mttr": 7200,
    "fault_seed": 7,
    "io_write_fail": 0.3,
    "io_read_fail": 0.2,
    "io_seed": 5,
    "io_max_attempts": 6,
    "io_backoff_base": 10,
    "io_backoff_cap": 90,
    "io_health_window": 1200,
    "io_health_thresh": 2
  },
  "events": 1234,
  "now": 5678,
  "audit_hash": 42,
  "audit_entries": 99
}
crc32 9588a211
`

// The embedded fault configurations keep the byte format of the flat
// fields they replaced: a psim-shaped checkpoint encodes to the same
// bytes, and those bytes decode to the same runnable options.
func TestOptSpecKeepsCheckpointBytes(t *testing.T) {
	got, err := psimCheckpoint.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != psimCheckpointBytes {
		t.Errorf("checkpoint bytes changed:\n got:\n%s\nwant:\n%s", got, psimCheckpointBytes)
	}
	back, err := Decode([]byte(psimCheckpointBytes))
	if err != nil {
		t.Fatal(err)
	}
	want := sched.Options{
		Overhead: overhead.Disk{},
		Faults:   fault.Config{MTBF: 1800000, MTTR: 7200, Seed: 7},
		Transient: fault.TransientConfig{WriteFailProb: 0.3, ReadFailProb: 0.2, Seed: 5,
			MaxAttempts: 6, BackoffBase: 10, BackoffCap: 90, HealthWindow: 1200, HealthThreshold: 2},
	}
	if opt := back.Opt.Options(); !reflect.DeepEqual(opt, want) {
		t.Errorf("decoded options:\n got %+v\nwant %+v", opt, want)
	}

	// psim used to record -fault-seed without -mtbf; such a checkpoint
	// still expands to options with fault injection off.
	old := Seal(checkpointKind, checkpointVersion, []byte(`{"workload":{"kind":"synthetic","model":"SDSC","jobs":300},
		"sched":"ns","opt":{"overhead":true,"fault_seed":1},"events":0,"now":0,"audit_hash":0,"audit_entries":0}`))
	c, err := Decode(old)
	if err != nil {
		t.Fatal(err)
	}
	if opt := c.Opt.Options(); !reflect.DeepEqual(opt, sched.Options{Overhead: overhead.Disk{}}) {
		t.Errorf("fault_seed without mtbf expanded to %+v", opt)
	}
}

// FailFirst, the deterministic test mode of transient faults, survives
// a checkpoint like every other fault knob.
func TestCheckpointCarriesFailFirst(t *testing.T) {
	c := psimCheckpoint
	c.Opt.FailFirst = 3
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"io_fail_first": 3`) {
		t.Errorf("encoding lacks io_fail_first:\n%s", data)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if *back != c {
		t.Errorf("round trip:\n got %+v\nwant %+v", back, c)
	}
	if got := back.Opt.Options().Transient.FailFirst; got != 3 {
		t.Errorf("resumed options FailFirst = %d, want 3", got)
	}
}
