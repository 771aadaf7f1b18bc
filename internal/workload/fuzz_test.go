package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadSWF hardens the trace parser: arbitrary input must never
// panic, ReadSWF must return the same trace or the same error as the
// string-only readSWFReference, and any trace it accepts must be
// internally consistent (sorted, estimates ≥ run times — the invariants
// Validate would need).
func FuzzReadSWF(f *testing.F) {
	f.Add(sampleSWF)
	f.Add("; MaxProcs: 4\n1 0 -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("")
	f.Add(";\n; Computer:\n")
	f.Add("1 2 3\n")
	f.Add("1 0 -1 1e9 2 -1 -1 2 1e18 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	// Hardening corpus: truncated records, CRLF endings, comment-only
	// files, and the non-finite / out-of-range / negative-time values
	// the reader must reject instead of converting unsoundly.
	f.Add("1 0 -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n2 30 -1 10\n")
	f.Add("; MaxProcs: 4\r\n1 0 -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\r\n")
	f.Add(";\n; Computer: X\n\n; UnixStartTime: 0\n")
	f.Add("1 NaN -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("1 +Inf -1 -Inf 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("1 -30 -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("1 0 -1 10 2 -1 1125899906842624 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	// Edges of the byte fast path: signs, leading zeros, the 15/16-digit
	// boundary, float syntax, every ASCII space, Unicode spaces between
	// fields, non-ASCII after field 18, a short record and a CRLF header.
	f.Add("+5 0 -1 +10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("-0 -0 -1 10 2 -1 -0 2 -0 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("007 0 -1 0010 2 -1 -1 02 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("1 999999999999999 -1 10 2 -1 -1 2 999999999999999 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("1 9999999999999999 -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("1 0000000000000001 -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("1 0 -1 1.0 2 -1 -1 2 1e3 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("1\t0\v-1\f10\r2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("1\u00a00 -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("1 0\u0085-1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("1 0 -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1 \u00e9t\u00e9\n")
	f.Add("1 0 -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1\n")
	f.Add("; MaxProcs: 8\r\n1 0 -1 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadSWF(strings.NewReader(input), "fuzz")
		ref, refErr := readSWFReference(strings.NewReader(input), "fuzz")
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("error differs from the reference reader: %v vs %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(tr, ref) {
			t.Fatalf("trace differs from the reference reader:\n%+v\nvs\n%+v", tr, ref)
		}
		prev := int64(-1 << 62)
		for _, j := range tr.Jobs {
			if j.SubmitTime < prev {
				t.Fatalf("unsorted output: %d after %d", j.SubmitTime, prev)
			}
			prev = j.SubmitTime
			if j.RunTime <= 0 || j.Procs <= 0 {
				t.Fatalf("accepted unsimulatable job %+v", j)
			}
			if j.Estimate < j.RunTime {
				t.Fatalf("estimate %d below run time %d", j.Estimate, j.RunTime)
			}
		}
		// Accepted traces must round-trip through the writer.
		if len(tr.Jobs) > 0 && tr.Procs > 0 {
			var buf bytes.Buffer
			if err := WriteSWF(&buf, tr); err != nil {
				t.Fatalf("write-back failed: %v", err)
			}
			back, err := ReadSWF(&buf, "fuzz2")
			if err != nil {
				t.Fatalf("re-read failed: %v", err)
			}
			if len(back.Jobs) != len(tr.Jobs) {
				t.Fatalf("round trip lost jobs: %d vs %d", len(back.Jobs), len(tr.Jobs))
			}
		}
	})
}
