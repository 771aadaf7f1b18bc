package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"pjs/internal/job"
)

// readSWFReference is ReadSWF as it was before the byte fast path: every
// line through strings.Fields and every field through strconv.ParseFloat.
// FuzzReadSWF holds ReadSWF to it: the same trace or the same error.
func readSWFReference(r io.Reader, name string) (*Trace, error) {
	t := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	maxSeen := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			parseSWFHeader(t, line)
			continue
		}
		f := strings.Fields(line)
		if len(f) < swfFields {
			return nil, fmt.Errorf("workload: %s:%d: %d fields, want %d", name, lineNo, len(f), swfFields)
		}
		vals := make([]int64, swfFields)
		for i := 0; i < swfFields; i++ {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("workload: %s:%d: field %d: %v", name, lineNo, i, err)
			}
			if math.IsNaN(v) || v > float64(maxSWFValue) || v < -float64(maxSWFValue) {
				return nil, fmt.Errorf("workload: %s:%d: field %d: value %v outside ±2^53", name, lineNo, i, v)
			}
			vals[i] = int64(v)
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
		j := job.New(id, submit, run, est, procs)
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
