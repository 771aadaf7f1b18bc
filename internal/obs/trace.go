package obs

import (
	"encoding/json"
	"io"
	"sort"

	"pjs/internal/job"
	"pjs/internal/sched"
)

// tsScale converts virtual seconds to trace-event timestamps. The
// Chrome trace-event format counts microseconds, so scaling by 1e6
// makes Perfetto's ruler read real simulated durations.
const tsScale = 1_000_000

// Slice phase categories, exposed so the validator and summary tooling
// share the exporter's vocabulary.
const (
	CatRun       = "run"           // computing
	CatRead      = "restart-read"  // restart I/O after a resume
	CatWrite     = "suspend-write" // suspension image write (overhead)
	CatKill      = "killed"        // an aborted execution (speculative gamble or processor failure)
	CatDown      = "down"          // a processor out of service after a failure
	CatImageLost = "image-lost"    // a suspended image stranded on a failed processor

	// Transient suspend/restart I/O fault categories.
	CatIORetry     = "io-retry"     // a transiently failed image write/read, retry scheduled
	CatIOExhausted = "io-exhausted" // an image write/read failed on its final attempt
	CatIODegraded  = "io-degraded"  // a processor over the windowed I/O failure threshold
)

// tracePid is the single process all tracks live under; each processor
// is one thread (track) of it.
const tracePid = 1

// traceDoc is the JSON object-format envelope Perfetto and
// chrome://tracing both accept.
type traceDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []any  `json:"traceEvents"`
}

// sliceEvent is a complete ("X") duration event on one processor track.
type sliceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	Ts   int64     `json:"ts"`
	Dur  int64     `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args sliceArgs `json:"args"`
}

type sliceArgs struct {
	Job         int    `json:"job"`
	Category    string `json:"category"`
	Width       int    `json:"width"`
	RunS        int64  `json:"run_s"`
	SubmitS     int64  `json:"submit_s"`
	Suspensions int    `json:"suspensions"`
}

// downSliceEvent is a complete ("X") slice marking a processor's
// out-of-service span. It carries no args: there is no job subject, and
// the validator must not count one.
type downSliceEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
}

// metaEvent names the process and its processor threads.
type metaEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	Args metaArgs `json:"args"`
}

type metaArgs struct {
	Name string `json:"name"`
}

// counterEvent is a "C" counter sample rendered by Perfetto as a
// stacked area track. Args is busyArgs or jobsArgs.
type counterEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Pid  int    `json:"pid"`
	Args any    `json:"args"`
}

// busyArgs and jobsArgs are the series of the two counter tracks, their
// fields in key order as a map would encode them.
type busyArgs struct {
	Busy int `json:"busy"`
}

type jobsArgs struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Suspended int `json:"suspended"`
}

// openSeg is a job's in-flight occupancy of its processor set: either a
// compute burst (possibly led by restart-read I/O) or a suspension
// image write.
type openSeg struct {
	start int64
	read  int64 // restart-read seconds at the head of a compute burst
	write bool  // true for a suspension image write
	procs []int
}

// TraceBuilder exports a run as Chrome trace-event JSON: one thread
// (track) per processor under a single "cluster" process, job segments
// as complete slices — compute bursts under CatRun, restart reads under
// CatRead, suspension writes under CatWrite, aborted speculative bursts
// under CatKill — plus counter tracks for busy processors and job
// states. It implements sched.Observer; export with WriteJSON after the
// run and open the file in ui.perfetto.dev.
type TraceBuilder struct {
	// Procs is the machine size (number of tracks).
	Procs int

	meta   []any
	slices []any
	open   map[int]*openSeg // job ID -> in-flight segment

	// counts is the settled census of every instant, the source of the
	// counter tracks (see Census).
	counts Sampler

	// The open per-processor spans: down after a processor failure,
	// io-degraded under transient I/O faults; plus the last event time
	// seen, to close spans still open at export.
	down, degraded procSpans
	lastTime       int64
}

// procSpans is the open spans of one per-processor category: processor
// -> the time its span opened. The map is made when a first span opens.
type procSpans struct {
	cat   string
	since map[int]int64
}

// NewTraceBuilder returns a builder for a machine of the given size,
// with the process and per-processor thread names pre-registered.
func NewTraceBuilder(procs int) *TraceBuilder {
	b := &TraceBuilder{
		Procs: procs, open: make(map[int]*openSeg), counts: Sampler{Procs: procs},
		down: procSpans{cat: CatDown}, degraded: procSpans{cat: CatIODegraded},
	}
	b.meta = append(b.meta, metaEvent{
		Name: "process_name", Ph: "M", Pid: tracePid,
		Args: metaArgs{Name: "cluster"},
	})
	for p := 0; p < procs; p++ {
		b.meta = append(b.meta, metaEvent{
			Name: "thread_name", Ph: "M", Pid: tracePid, Tid: p,
			Args: metaArgs{Name: procName(p)},
		})
	}
	return b
}

func procName(p int) string {
	// Zero-padded so lexical track sort matches numeric order.
	const digits = "0123456789"
	return "proc " + string([]byte{
		digits[p/100%10], digits[p/10%10], digits[p%10],
	})
}

// Census returns the sampler the counter tracks are rendered from. It
// observes every event the builder does, so a caller that also wants
// the time series writes it from here (Sampler.WriteCSV) rather than
// attaching a second Sampler to the run.
func (b *TraceBuilder) Census() *Sampler { return &b.counts }

// Observe implements sched.Observer.
func (b *TraceBuilder) Observe(ev sched.Event) {
	b.counts.Observe(ev)
	if ev.Time > b.lastTime {
		b.lastTime = ev.Time
	}
	j := ev.Job
	if j == nil {
		if ev.Action == sched.ActProcFail || ev.Action == sched.ActProcRepair {
			b.observeSpan(&b.down, ev.Action == sched.ActProcFail, ev)
		} else if ev.Action == sched.ActIODegraded || ev.Action == sched.ActIORestored {
			b.observeSpan(&b.degraded, ev.Action == sched.ActIODegraded, ev)
		}
		return
	}
	switch ev.Action {
	case sched.ActStart, sched.ActResume:
		b.open[j.ID] = &openSeg{
			start: ev.Time,
			read:  j.PendingRead,
			procs: append([]int(nil), ev.Procs...),
		}
	case sched.ActSuspendBegin:
		b.closeBurst(j, ev.Time, CatRun)
		b.open[j.ID] = &openSeg{start: ev.Time, write: true,
			procs: append([]int(nil), ev.Procs...)}
	case sched.ActSuspendDone:
		b.closeWrite(j, ev.Time)
	case sched.ActFinish:
		b.closeBurst(j, ev.Time, CatRun)
	case sched.ActKill:
		if seg := b.open[j.ID]; seg != nil && seg.write {
			// The processor failed during the image write: the partial
			// write closes as a killed slice.
			delete(b.open, j.ID)
			b.emitSlices(j, seg.procs, seg.start, ev.Time-seg.start, CatKill)
		} else {
			b.closeBurst(j, ev.Time, CatKill)
		}
	case sched.ActImageLost:
		// The stranded image is a zero-duration marker on the set the
		// job was suspended on (it held no processors at the time).
		b.emitSlices(j, ev.Procs, ev.Time, 0, CatImageLost)
	case sched.ActIORetry, sched.ActIOExhausted:
		// A transient I/O failure is a zero-duration marker on the set
		// the operation ran on; the job's open segment stays open (it
		// still holds its processors through the retry or the kill).
		cat := CatIORetry
		if ev.Action == sched.ActIOExhausted {
			cat = CatIOExhausted
		}
		b.emitSlices(j, ev.Procs, ev.Time, 0, cat)
		if seg := b.open[j.ID]; seg != nil && !seg.write {
			// A retried restart read extends the read head of the burst.
			seg.read = j.PendingRead
		}
	case sched.ActArrive, sched.ActProcFail, sched.ActProcRepair,
		sched.ActIODegraded, sched.ActIORestored, sched.ActTick:
		// No slice: arrivals open nothing (the queue is not a track),
		// and processor/tick/health events carry no job — faults and
		// health transitions are handled on the job-less path above.
	}
}

// observeSpan opens (open) or closes the span of category spans on
// the processor of ev, a job-less processor event.
func (b *TraceBuilder) observeSpan(spans *procSpans, open bool, ev sched.Event) {
	p := ev.Procs[0]
	if open {
		if spans.since == nil {
			spans.since = make(map[int]int64)
		}
		spans.since[p] = ev.Time
	} else if start, ok := spans.since[p]; ok {
		delete(spans.since, p)
		b.emitSpan(spans.cat, p, start, ev.Time)
	}
}

// closeSpans closes the spans of category spans still open at the end
// of the run, in processor order for deterministic output.
func (b *TraceBuilder) closeSpans(spans *procSpans) {
	procs := make([]int, 0, len(spans.since))
	for p := range spans.since {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, p := range procs {
		start := spans.since[p]
		b.emitSpan(spans.cat, p, start, max(b.lastTime, start))
	}
	spans.since = nil
}

// emitSpan emits one slice of category cat, named after it, for
// processor p over [start, end].
func (b *TraceBuilder) emitSpan(cat string, p int, start, end int64) {
	b.slices = append(b.slices, downSliceEvent{
		Name: cat, Cat: cat, Ph: "X",
		Ts: start * tsScale, Dur: (end - start) * tsScale,
		Pid: tracePid, Tid: p,
	})
}

// closeBurst closes j's compute burst at time end, splitting off the
// restart-read head as its own shaded slice.
func (b *TraceBuilder) closeBurst(j *job.Job, end int64, cat string) {
	seg := b.open[j.ID]
	if seg == nil || seg.write {
		return
	}
	delete(b.open, j.ID)
	read := seg.read
	if read > end-seg.start {
		read = end - seg.start // burst preempted mid-read
	}
	if read > 0 {
		b.emitSlices(j, seg.procs, seg.start, read, CatRead)
	}
	b.emitSlices(j, seg.procs, seg.start+read, end-(seg.start+read), cat)
}

// closeWrite closes j's suspension image write at time end.
func (b *TraceBuilder) closeWrite(j *job.Job, end int64) {
	seg := b.open[j.ID]
	if seg == nil || !seg.write {
		return
	}
	delete(b.open, j.ID)
	b.emitSlices(j, seg.procs, seg.start, end-seg.start, CatWrite)
}

// emitSlices emits one complete slice per processor of the set.
func (b *TraceBuilder) emitSlices(j *job.Job, procs []int, start, dur int64, cat string) {
	args := sliceArgs{
		Job:         j.ID,
		Category:    j.Category().String(),
		Width:       j.Procs,
		RunS:        j.RunTime,
		SubmitS:     j.SubmitTime,
		Suspensions: j.Suspensions,
	}
	name := sliceName(j.ID, cat)
	for _, p := range procs {
		b.slices = append(b.slices, sliceEvent{
			Name: name, Cat: cat, Ph: "X",
			Ts: start * tsScale, Dur: dur * tsScale,
			Pid: tracePid, Tid: p, Args: args,
		})
	}
}

func sliceName(id int, cat string) string {
	base := "job " + itoa(id)
	switch cat {
	case CatRead:
		return base + " (restart read)"
	case CatWrite:
		return base + " (suspend write)"
	case CatKill:
		return base + " (killed)"
	case CatImageLost:
		return base + " (image lost)"
	case CatIORetry:
		return base + " (io retry)"
	case CatIOExhausted:
		return base + " (io exhausted)"
	}
	return base
}

// itoa is strconv.Itoa without the import weight elsewhere in the hot
// build path — ids are small non-negative integers.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// WriteJSON writes the trace in the JSON object format. Output is
// deterministic: slices in closure order (a pure function of the event
// stream), then the spans still open, then the counters, one sample of
// each track per instant (the Sampler's settled state) in instant
// order. Write errors are propagated.
func (b *TraceBuilder) WriteJSON(w io.Writer) error {
	b.closeSpans(&b.down)
	b.closeSpans(&b.degraded)
	all := make([]any, 0, len(b.meta)+len(b.slices)+2*b.counts.Len())
	all = append(all, b.meta...)
	all = append(all, b.slices...)
	for i := range b.counts.Len() {
		c := b.counts.At(i)
		ts := c.Time * tsScale
		all = append(all,
			counterEvent{Name: "busy procs", Ph: "C", Ts: ts, Pid: tracePid,
				Args: busyArgs{Busy: c.Busy}},
			counterEvent{Name: "jobs", Ph: "C", Ts: ts, Pid: tracePid,
				Args: jobsArgs{Queued: c.Queued, Running: c.Running, Suspended: c.Suspended}},
		)
	}
	return json.NewEncoder(w).Encode(traceDoc{
		DisplayTimeUnit: "ms",
		TraceEvents:     all,
	})
}
