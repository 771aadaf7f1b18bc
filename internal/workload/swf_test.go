package workload

import (
	"bytes"
	"strings"
	"testing"
)

const sampleSWF = `; Computer: Toy SP2
; MaxProcs: 64
; Note: hand-written sample
1 0 10 3600 4 -1 2048 4 7200 -1 1 5 -1 -1 -1 -1 -1 -1
2 30 -1 600 8 -1 -1 8 900 -1 1 5 -1 -1 -1 -1 -1 -1
3 60 -1 0 4 -1 -1 4 3600 -1 0 5 -1 -1 -1 -1 -1 -1
4 90 -1 100 -1 -1 -1 -1 200 -1 5 5 -1 -1 -1 -1 -1 -1
5 120 -1 50 2 -1 -1 -1 -1 -1 1 5 -1 -1 -1 -1 -1 -1
`

func TestReadSWF(t *testing.T) {
	tr, err := ReadSWF(strings.NewReader(sampleSWF), "sample")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Procs != 64 {
		t.Errorf("Procs = %d, want 64 (header)", tr.Procs)
	}
	// Job 3 (zero run time) and job 4 (no procs at all) are skipped.
	if len(tr.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(tr.Jobs))
	}
	j := tr.Jobs[0]
	if j.ID != 1 || j.SubmitTime != 0 || j.RunTime != 3600 || j.Procs != 4 || j.Estimate != 7200 {
		t.Errorf("job1 = %+v", j)
	}
	if j.MemPerProc != 2048<<10 {
		t.Errorf("job1 mem = %d, want 2 MB", j.MemPerProc)
	}
	// Job 5 has no requested procs/time: falls back to allocated/run.
	j5 := tr.Jobs[2]
	if j5.Procs != 2 || j5.Estimate != 50 {
		t.Errorf("job5 fallbacks: procs=%d est=%d", j5.Procs, j5.Estimate)
	}
}

func TestReadSWFNoHeaderUsesWidestJob(t *testing.T) {
	src := "1 0 10 100 16 -1 -1 16 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	tr, err := ReadSWF(strings.NewReader(src), "x")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Procs != 16 {
		t.Errorf("Procs = %d, want 16", tr.Procs)
	}
}

func TestReadSWFRejectsShortLines(t *testing.T) {
	if _, err := ReadSWF(strings.NewReader("1 2 3\n"), "bad"); err == nil {
		t.Error("expected error for short record")
	}
}

func TestReadSWFRejectsGarbage(t *testing.T) {
	line := "1 0 10 zzz 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	if _, err := ReadSWF(strings.NewReader(line), "bad"); err == nil {
		t.Error("expected error for non-numeric field")
	}
}

// TestReadSWFMalformedRecords table-drives the hardened error paths:
// every malformed record must come back as a wrapped error naming the
// trace and the 1-based line number, never a silent misparse (the old
// int64(NaN) conversion was undefined behavior) and never a panic.
func TestReadSWFMalformedRecords(t *testing.T) {
	const good = "1 0 -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"truncated record", good + "2 30 -1 10\n", "bad:2: 4 fields, want 18"},
		{"non-numeric field", good + "2 30 -1 zz 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n", "bad:2: field 3"},
		{"NaN field", good + "2 NaN -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n", "bad:2: field 1"},
		{"infinite field", good + "2 +Inf -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n", "bad:2: field 1"},
		{"beyond 2^53", good + "2 1e300 -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n", "outside ±2^53"},
		{"negative submit", good + "2 -30 -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n", "bad:2: negative submit time -30"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadSWF(strings.NewReader(tc.src), "bad")
			if err == nil {
				t.Fatal("malformed record accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestReadSWFBenignVariants pins inputs the reader must tolerate:
// CRLF line endings, comment-only files, blank lines, and oversized
// memory fields (clamped out rather than overflowed into negatives).
func TestReadSWFBenignVariants(t *testing.T) {
	crlf := "; MaxProcs: 4\r\n1 0 -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\r\n"
	tr, err := ReadSWF(strings.NewReader(crlf), "crlf")
	if err != nil || len(tr.Jobs) != 1 || tr.Procs != 4 {
		t.Errorf("CRLF input: err=%v jobs=%d procs=%d", err, len(tr.Jobs), tr.Procs)
	}

	comments := ";\n; Computer: X\n\n; UnixStartTime: 0\n"
	tr, err = ReadSWF(strings.NewReader(comments), "c")
	if err != nil || len(tr.Jobs) != 0 {
		t.Errorf("comment-only input: err=%v jobs=%d", err, len(tr.Jobs))
	}

	// Memory of 2^50 KB would shift past int64 bytes; it must be dropped.
	bigMem := "1 0 -1 10 2 -1 1125899906842624 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	tr, err = ReadSWF(strings.NewReader(bigMem), "mem")
	if err != nil || len(tr.Jobs) != 1 {
		t.Fatalf("big-mem input: err=%v jobs=%d", err, len(tr.Jobs))
	}
	if tr.Jobs[0].MemPerProc != 0 {
		t.Errorf("MemPerProc = %d, want 0 (implausible value dropped)", tr.Jobs[0].MemPerProc)
	}
}

func TestReadSWFSortsBySubmit(t *testing.T) {
	src := `2 100 -1 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
1 50 -1 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
`
	tr, err := ReadSWF(strings.NewReader(src), "x")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Jobs[0].ID != 1 {
		t.Error("jobs not sorted by submit time")
	}
}

func TestSWFRoundTrip(t *testing.T) {
	orig := Generate(SDSC(), GenOptions{Jobs: 200, Seed: 9, Estimates: EstimateInaccurate})
	var buf bytes.Buffer
	if err := WriteSWF(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSWF(&buf, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if back.Procs != orig.Procs {
		t.Errorf("Procs = %d, want %d", back.Procs, orig.Procs)
	}
	if len(back.Jobs) != len(orig.Jobs) {
		t.Fatalf("jobs = %d, want %d", len(back.Jobs), len(orig.Jobs))
	}
	for i, j := range orig.Jobs {
		b := back.Jobs[i]
		if b.ID != j.ID || b.SubmitTime != j.SubmitTime || b.RunTime != j.RunTime ||
			b.Procs != j.Procs || b.Estimate != j.Estimate {
			t.Fatalf("job %d mismatch: %+v vs %+v", i, b, j)
		}
		// Memory travels in KB, so it round-trips to KB precision.
		if diff := b.MemPerProc - j.MemPerProc; diff < -1024 || diff > 1024 {
			t.Fatalf("job %d memory mismatch: %d vs %d", i, b.MemPerProc, j.MemPerProc)
		}
	}
}

// TestReadSWFAllocs pins the byte fast path and the job chunks: parsing
// a generated trace of 1000 jobs allocates no object per job, only the
// scanner buffer, the header lines, the doublings of the job slice and
// five chunks of jobs.
func TestReadSWFAllocs(t *testing.T) {
	tr := Generate(SDSC(), GenOptions{Jobs: 1000, Seed: 1})
	var buf bytes.Buffer
	if err := WriteSWF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	got := testing.AllocsPerRun(10, func() {
		if _, err := ReadSWF(bytes.NewReader(raw), "allocs"); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 32.0; got > limit {
		t.Errorf("ReadSWF of %d jobs: %v allocations, want at most %v", len(tr.Jobs), got, limit)
	}
	t.Logf("ReadSWF of %d jobs: %v allocations", len(tr.Jobs), got)
}
