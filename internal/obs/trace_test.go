package obs

import (
	"bytes"
	"strings"
	"testing"

	"pjs/internal/job"
	"pjs/internal/sched"
)

// buildTrace drives a TraceBuilder through one job's full preemption
// lifecycle on a 4-proc machine: start on {0,1}, suspend (write until
// 150), resume with a restart read, finish — plus a second job that is
// killed mid-run.
func buildTrace() *TraceBuilder {
	b := NewTraceBuilder(4)
	j := job.New(1, 0, 500, 500, 2)
	k := job.New(2, 0, 500, 500, 1)

	b.Observe(sched.Event{Entry: sched.Entry{Time: 0, Action: sched.ActArrive}, Job: j})
	b.Observe(sched.Event{Entry: sched.Entry{Time: 0, Action: sched.ActStart, Procs: []int{0, 1}}, Job: j, Busy: 2, Running: 1})
	b.Observe(sched.Event{Entry: sched.Entry{Time: 100, Action: sched.ActSuspendBegin, Procs: []int{0, 1}}, Job: j, Busy: 2, Suspended: 1})
	b.Observe(sched.Event{Entry: sched.Entry{Time: 150, Action: sched.ActSuspendDone, Procs: []int{0, 1}}, Job: j})
	b.Observe(sched.Event{Entry: sched.Entry{Time: 150, Action: sched.ActStart, Procs: []int{2}}, Job: k, Busy: 1, Running: 1})
	j.PendingRead = 50
	b.Observe(sched.Event{Entry: sched.Entry{Time: 200, Action: sched.ActResume, Procs: []int{0, 1}}, Job: j, Busy: 3})
	b.Observe(sched.Event{Entry: sched.Entry{Time: 400, Action: sched.ActKill, Procs: []int{2}}, Job: k})
	b.Observe(sched.Event{Entry: sched.Entry{Time: 650, Action: sched.ActFinish, Procs: []int{0, 1}}, Job: j})
	return b
}

func TestTraceBuilderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	// Slices: job 1 run (2 procs) + suspend write (2) + restart read (2)
	// + second run (2) = 8, job 2 killed run (1) = 9.
	if stats.Slices != 9 {
		t.Errorf("slices=%d, want 9", stats.Slices)
	}
	if got := stats.SlicesPerCat[CatRead]; got != 2 {
		t.Errorf("restart-read slices=%d, want 2", got)
	}
	if got := stats.SlicesPerCat[CatWrite]; got != 2 {
		t.Errorf("suspend-write slices=%d, want 2", got)
	}
	if got := stats.SlicesPerCat[CatKill]; got != 1 {
		t.Errorf("killed slices=%d, want 1", got)
	}
	if stats.Jobs != 2 {
		t.Errorf("jobs=%d, want 2", stats.Jobs)
	}
	if stats.Tracks != 3 { // procs 0, 1, 2 carry slices; proc 3 idle
		t.Errorf("tracks=%d, want 3", stats.Tracks)
	}
	// 1 process_name + 4 thread_name entries.
	if stats.Metadata != 5 {
		t.Errorf("metadata=%d, want 5", stats.Metadata)
	}
	if stats.SpanSeconds != 650 {
		t.Errorf("span=%.0f s, want 650", stats.SpanSeconds)
	}
}

func TestTraceBuilderDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if err := buildTrace().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Fatal("trace JSON not deterministic across identical event streams")
	}
}

func TestTraceBuilderRestartReadClamped(t *testing.T) {
	// A job preempted before its restart read completes must not emit a
	// read slice longer than the burst it heads.
	b := NewTraceBuilder(2)
	j := job.New(1, 0, 500, 500, 1)
	j.PendingRead = 100
	b.Observe(sched.Event{Entry: sched.Entry{Time: 0, Action: sched.ActResume, Procs: []int{0}}, Job: j})
	b.Observe(sched.Event{Entry: sched.Entry{Time: 30, Action: sched.ActSuspendBegin, Procs: []int{0}}, Job: j})
	b.Observe(sched.Event{Entry: sched.Entry{Time: 60, Action: sched.ActSuspendDone, Procs: []int{0}}, Job: j})

	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if stats.SlicesPerCat[CatRead] != 1 || stats.SlicesPerCat[CatRun] != 1 {
		t.Fatalf("cats=%v, want one read and one (zero-length) run", stats.SlicesPerCat)
	}
	if stats.SpanSeconds != 60 {
		t.Fatalf("span=%.0f, want 60 (read clamped to the 30 s burst)", stats.SpanSeconds)
	}
}

func TestTraceBuilderWriteJSONPropagatesErrors(t *testing.T) {
	b := buildTrace()
	if err := b.WriteJSON(&failAfter{n: 0}); err == nil {
		t.Fatal("WriteJSON on a failing writer returned nil")
	}
}

func TestValidateTraceRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, data, wantErr string
	}{
		{"not json", `{]`, "not valid JSON"},
		{"no traceEvents", `{"displayTimeUnit":"ms"}`, "missing traceEvents"},
		{"unnamed event", `{"traceEvents":[{"ph":"X"}]}`, "missing name"},
		{"unphased event", `{"traceEvents":[{"name":"x"}]}`, "missing ph"},
		{"slice without ts", `{"traceEvents":[{"name":"x","ph":"X","dur":1,"pid":1,"tid":0}]}`, "negative ts"},
		{"slice negative dur", `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-1,"pid":1,"tid":0}]}`, "negative dur"},
		{"slice without tid", `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":1,"pid":1}]}`, "missing pid/tid"},
		{"counter without args", `{"traceEvents":[{"name":"c","ph":"C","ts":0}]}`, "missing args"},
		{"metadata without args", `{"traceEvents":[{"name":"m","ph":"M"}]}`, "missing args"},
		{"unknown phase", `{"traceEvents":[{"name":"b","ph":"B","ts":0}]}`, "unsupported phase"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ValidateTrace([]byte(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateTraceAcceptsEmpty(t *testing.T) {
	stats, err := ValidateTrace([]byte(`{"traceEvents":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 0 || stats.SpanSeconds != 0 {
		t.Fatalf("stats = %+v, want zeros", stats)
	}
}
