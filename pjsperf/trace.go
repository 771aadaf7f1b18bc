package main

import (
	"encoding/json"
	"io"

	"pjs/internal/job"
	"pjs/internal/perf"
	"pjs/internal/sched"
)

// layer names one kind of span. Stage layers bracket the calls the
// pipeline makes into each package; the per-call layers bracket each
// policy hook and each observer delivery and exist only in traced runs.
type layer int

const (
	lCell layer = iota // one cell's whole pipeline; its self time is the harness's glue
	lGenerate
	lParse
	lScale
	lSim // sched.RunChecked; self time is the engine, driver and cluster
	lCheck
	lSummarize
	lRender
	lArrival
	lCompletion
	lSuspendDone
	lTick
	lFailure
	lRepair
	lSink
	numLayers
)

// layerMetric is each layer's self-time metric name.
var layerMetric = [numLayers]string{
	lCell:        "bench.glue_frac",
	lGenerate:    "workload.generate_frac",
	lParse:       "workload.parse_frac",
	lScale:       "workload.scale_frac",
	lSim:         "driver.self_frac",
	lCheck:       "check.replay_frac",
	lSummarize:   "metrics.summarize_frac",
	lRender:      "report.render_frac",
	lArrival:     "policy.arrival_frac",
	lCompletion:  "policy.completion_frac",
	lSuspendDone: "policy.suspend_done_frac",
	lTick:        "policy.tick_frac",
	lFailure:     "policy.failure_frac",
	lRepair:      "policy.repair_frac",
	lSink:        "obs.sink_frac",
}

// stage reports whether l is recorded as an individual span (and
// exported), rather than only aggregated.
func (l layer) stage() bool { return l <= lRender }

// frame is an open span.
type frame struct {
	l     layer
	start int64
	child int64 // duration of the closed spans directly inside this one
}

// span is a closed stage span.
type span struct {
	l          layer
	start, dur int64
}

// tracer keeps a span stack: a span's self time is its duration minus
// the durations of the spans directly inside it, so the self times of
// all layers add up to the duration of the outermost spans. Stage spans
// are kept for export; per-call spans are only counted and summed.
type tracer struct {
	clock perf.Clock
	stack []frame
	self  [numLayers]int64
	total [numLayers]int64 // inclusive
	calls [numLayers]int64
	spans []span
}

func newTracer(c perf.Clock) *tracer { return &tracer{clock: c} }

func (t *tracer) begin(l layer) {
	t.stack = append(t.stack, frame{l: l, start: t.clock()})
}

func (t *tracer) end() {
	now := t.clock()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	t.self[f.l] += d - f.child
	t.total[f.l] += d
	t.calls[f.l]++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	if f.l.stage() {
		t.spans = append(t.spans, span{l: f.l, start: f.start, dur: d})
	}
}

// setupTotal is the time spent producing inputs: generating or parsing,
// and scaling.
func (t *tracer) setupTotal() int64 {
	return t.total[lGenerate] + t.total[lParse] + t.total[lScale]
}

// tracedPolicy times every hook of the wrapped policy. The policy's
// calls into the driver (starts, suspensions) and any observer
// deliveries they trigger run inside the hook's span.
type tracedPolicy struct {
	sched.Scheduler
	t *tracer
}

func (p tracedPolicy) OnArrival(j *job.Job) {
	p.t.begin(lArrival)
	p.Scheduler.OnArrival(j)
	p.t.end()
}

func (p tracedPolicy) OnCompletion(j *job.Job) {
	p.t.begin(lCompletion)
	p.Scheduler.OnCompletion(j)
	p.t.end()
}

func (p tracedPolicy) OnSuspendDone(j *job.Job) {
	p.t.begin(lSuspendDone)
	p.Scheduler.OnSuspendDone(j)
	p.t.end()
}

func (p tracedPolicy) OnTick() {
	p.t.begin(lTick)
	p.Scheduler.OnTick()
	p.t.end()
}

func (p tracedPolicy) OnFailure(proc int, requeued []*job.Job) {
	p.t.begin(lFailure)
	p.Scheduler.OnFailure(proc, requeued)
	p.t.end()
}

func (p tracedPolicy) OnRepair(proc int) {
	p.t.begin(lRepair)
	p.Scheduler.OnRepair(proc)
	p.t.end()
}

// tracedObserver times every delivery to the wrapped sinks.
type tracedObserver struct {
	o sched.Observer
	t *tracer
}

func (o tracedObserver) Observe(ev sched.Event) {
	o.t.begin(lSink)
	o.o.Observe(ev)
	o.t.end()
}

// stageName is each stage layer's span name in the exported trace.
var stageName = [...]string{
	lCell:      "cell",
	lGenerate:  "workload.Generate",
	lParse:     "workload.ReadSWF",
	lScale:     "Trace.ScaleLoad",
	lSim:       "sched.RunChecked",
	lCheck:     "check.Check",
	lSummarize: "metrics.FromResult",
	lRender:    "render",
}

// traceEvent is one Chrome trace-event record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace exports the stage spans of each workload's traced
// passes as Chrome trace-event JSON, one thread per workload, with times
// in microseconds from the earliest span.
func writeChromeTrace(w io.Writer, names []string, spans [][]span) error {
	var origin int64
	first := true
	for _, ss := range spans {
		for _, s := range ss {
			if first || s.start < origin {
				origin, first = s.start, false
			}
		}
	}
	events := []traceEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "pjsperf"}}}
	for i, ss := range spans {
		tid := i + 1
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": names[i]}})
		for _, s := range ss {
			dur := float64(s.dur) / 1e3
			events = append(events, traceEvent{
				Name: stageName[s.l], Cat: "stage", Ph: "X",
				Ts: float64(s.start-origin) / 1e3, Dur: &dur, Pid: 1, Tid: tid,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
