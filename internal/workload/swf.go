package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The Standard Workload Format (SWF) of the Parallel Workloads Archive
// is a line-oriented text format: `;`-prefixed header comments followed
// by one record per job with 18 whitespace-separated integer fields.
// Field indices (0-based) used here:
//
//	0  job number          8  requested time (user estimate)
//	1  submit time         9  requested memory
//	2  wait time          10  status (1 = completed)
//	3  run time           11  user id
//	4  allocated procs    ...
//	7  requested procs
//
// See https://www.cs.huji.ac.il/labs/parallel/workload/swf.html.

// swfFields is the number of columns in an SWF record.
const swfFields = 18

// maxSWFValue bounds accepted field magnitudes: 2^53 is the largest
// integer a float64 represents exactly, so anything beyond it would
// silently lose precision in the int64 conversion (and int64(NaN) or
// int64(±Inf) is outright undefined behavior per the Go spec).
const maxSWFValue = int64(1) << 53

// maxSWFDigits is the longest digit run the byte fast path parses as an
// integer. 10^15 - 1 < 2^53, so every value it accepts is within the
// ±2^53 bound the string path enforces, and that bound check can be
// skipped on the fast path without changing what is accepted.
const maxSWFDigits = 15

// ReadSWF parses an SWF trace from r. Records that cannot be simulated
// (cancelled jobs with non-positive run time or processor count) are
// skipped, mirroring the preprocessing of trace-driven studies. The
// machine size is taken from the `; MaxProcs:` header if present, else
// from the widest job. Memory requirements are not part of most logs;
// MemPerProc is left zero (the overhead model or caller assigns it).
//
// A line whose first 18 fields are plain integers takes the byte fast
// path (parseSWFRecord); every other line — comments, blank or short
// lines, floats, inf/nan, 16+ digits, non-ASCII bytes — takes the
// string path (parseSWFLine), so headers and error messages are those
// of the string parser alone. The jobs are stored in chunks of up to
// 4096 (jobChunks), not one allocation each.
func ReadSWF(r io.Reader, name string) (*Trace, error) {
	t := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	maxSeen := 0
	var vals [swfFields]int64
	var chunks jobChunks
	for sc.Scan() {
		lineNo++
		if !parseSWFRecord(sc.Bytes(), &vals) {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, ";") {
				parseSWFHeader(t, line)
				continue
			}
			if err := parseSWFLine(line, &vals); err != nil {
				return nil, fmt.Errorf("workload: %s:%d: %v", name, lineNo, err)
			}
		}
		id := int(vals[0])
		submit := vals[1]
		if submit < 0 {
			return nil, fmt.Errorf("workload: %s:%d: negative submit time %d", name, lineNo, submit)
		}
		run := vals[3]
		procs := int(vals[7])
		if procs <= 0 {
			procs = int(vals[4]) // fall back to allocated
		}
		est := vals[8]
		if est <= 0 {
			est = run
		}
		if run <= 0 || procs <= 0 {
			continue // cancelled or malformed job
		}
		j := chunks.next()
		j.Init(id, submit, run, est, procs)
		// Used memory: average per processor, KB. The 2^40 KB (petabyte)
		// bound keeps the <<10 conversion from overflowing int64 bytes.
		if m := vals[6]; m > 0 && m <= 1<<40 {
			j.MemPerProc = m << 10
		}
		if procs > maxSeen {
			maxSeen = procs
		}
		t.Jobs = append(t.Jobs, j)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading %s: %v", name, err)
	}
	if t.Procs == 0 {
		t.Procs = maxSeen
	}
	t.SortBySubmit()
	return t, nil
}

// parseSWFRecord is the byte fast path of ReadSWF. It splits line in
// place on the six ASCII spaces strings.Fields uses and, when each of
// the first swfFields fields is [+-]digits with at most maxSWFDigits
// digits, stores them in vals and reports true. Fields past the last
// one it needs are not looked at, as the string path ignores them too.
// Any other line reports false and must go to the string path; vals is
// then partly overwritten. A byte >= 0x80 is neither a space nor a
// digit here, so a line with one before the end of its 18th field —
// a Unicode space such as U+00A0 included — always falls back.
//
//lint:allocfree always, an in-place scan of the line
func parseSWFRecord(line []byte, vals *[swfFields]int64) bool {
	i := 0
	for f := range vals {
		for i < len(line) && isSWFSpace(line[i]) {
			i++
		}
		neg := false
		if i < len(line) && (line[i] == '+' || line[i] == '-') {
			neg = line[i] == '-'
			i++
		}
		start := i
		var v int64
		for i < len(line) && '0' <= line[i] && line[i] <= '9' {
			v = v*10 + int64(line[i]-'0')
			i++
		}
		if n := i - start; n == 0 || n > maxSWFDigits {
			return false
		}
		if i < len(line) && !isSWFSpace(line[i]) {
			return false
		}
		if neg {
			v = -v
		}
		vals[f] = v
	}
	return true
}

// isSWFSpace reports the ASCII bytes strings.Fields splits on.
func isSWFSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// parseSWFLine is the string path of ReadSWF for a trimmed, non-blank,
// non-comment line: every field goes through strconv.ParseFloat and is
// truncated to an integer after the ±2^53 check.
func parseSWFLine(line string, vals *[swfFields]int64) error {
	f := strings.Fields(line)
	if len(f) < swfFields {
		return fmt.Errorf("%d fields, want %d", len(f), swfFields)
	}
	for i := range vals {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return fmt.Errorf("field %d: %v", i, err)
		}
		if math.IsNaN(v) || v > float64(maxSWFValue) || v < -float64(maxSWFValue) {
			return fmt.Errorf("field %d: value %v outside ±2^53", i, v)
		}
		vals[i] = int64(v)
	}
	return nil
}

// parseSWFHeader extracts the directives we care about from a comment
// line such as `; MaxProcs: 430`.
func parseSWFHeader(t *Trace, line string) {
	body := strings.TrimSpace(strings.TrimPrefix(line, ";"))
	i := strings.IndexByte(body, ':')
	if i < 0 {
		return
	}
	key := strings.TrimSpace(body[:i])
	val := strings.TrimSpace(body[i+1:])
	switch strings.ToLower(key) {
	case "maxprocs", "maxnodes":
		if n, err := strconv.Atoi(val); err == nil && n > t.Procs {
			t.Procs = n
		}
	case "computer", "installation":
		if t.Name == "" {
			t.Name = val
		}
	}
}

// WriteSWF emits the trace in SWF. Unknown fields are written as -1 as
// the format specifies; per-processor memory travels in the "used
// memory" column (KB). The output round-trips through ReadSWF.
func WriteSWF(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "; Computer: %s\n", t.Name)
	fmt.Fprintf(bw, "; MaxProcs: %d\n", t.Procs)
	fmt.Fprintf(bw, "; Generated by pjs tracegen (selective-preemption reproduction)\n")
	for _, j := range t.Jobs {
		// job submit wait run alloc cpu mem reqproc reqtime reqmem
		// status uid gid app queue partition prevjob thinktime
		_, err := fmt.Fprintf(bw, "%d %d -1 %d %d -1 %d %d %d -1 1 -1 -1 -1 -1 -1 -1 -1\n",
			j.ID, j.SubmitTime, j.RunTime, j.Procs, j.MemPerProc/(1<<10), j.Procs, j.Estimate)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
