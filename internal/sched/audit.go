package sched

import (
	"io"
	"strconv"
	"strings"

	"pjs/internal/decimal"
)

// Action is the kind of an audit-log entry.
type Action int

const (
	// ActArrive records a job submission.
	ActArrive Action = iota
	// ActStart records a first dispatch onto a processor set.
	ActStart
	// ActResume records a restart of a suspended job.
	ActResume
	// ActSuspendBegin records the start of a suspension write; the job
	// still holds its processors.
	ActSuspendBegin
	// ActSuspendDone records the release of a suspended job's
	// processors.
	ActSuspendDone
	// ActFinish records a completion.
	ActFinish
	// ActKill records an execution abort — a speculative gamble that
	// failed, or a running/suspending job whose processor failed. The
	// job's processors are released and all its work is discarded.
	ActKill
	// ActImageLost records the invalidation of a suspended job whose
	// memory image sat on a failed processor: the job returns to the
	// queue to restart from scratch. No processors are released (a
	// suspended job holds none); Procs records the stranded set.
	ActImageLost
	// ActProcFail records a processor failure (fault injection). The
	// entry carries no job: JobID is -1 and Procs holds the processor.
	ActProcFail
	// ActProcRepair records a failed processor returning to service.
	// Like ActProcFail it carries no job.
	ActProcRepair
	// ActIORetry records a transient suspend-write or restart-read I/O
	// failure for which a backed-off retry was scheduled. The job keeps
	// its processors and state; Procs records the set the operation ran
	// on.
	ActIORetry
	// ActIOExhausted records a transient I/O failure on the operation's
	// final permitted attempt: no further retry is scheduled and the job
	// is about to be killed back to the queue (the ActKill that follows
	// carries the lost work).
	ActIOExhausted
	// ActIODegraded records a processor crossing the windowed transient
	// I/O failure threshold: victim selection stops choosing victims on
	// it until it recovers. Like ActProcFail it carries no job — JobID
	// is -1 and Procs holds the processor.
	ActIODegraded
	// ActIORestored records a degraded processor's failure window
	// clearing: it is eligible for victim placement again. Carries no
	// job.
	ActIORestored
	// ActTick is the periodic scheduler-tick heartbeat. It is emitted
	// to observers only (Event.Job is nil) and never appears in the
	// audit log, which records job actions exclusively, so the
	// invariant checker has no replay rule for it: a tick in the log is
	// an error there.
	ActTick
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActArrive:
		return "arrive"
	case ActStart:
		return "start"
	case ActResume:
		return "resume"
	case ActSuspendBegin:
		return "suspend-begin"
	case ActSuspendDone:
		return "suspend-done"
	case ActFinish:
		return "finish"
	case ActKill:
		return "kill"
	case ActImageLost:
		return "image-lost"
	case ActProcFail:
		return "proc-fail"
	case ActProcRepair:
		return "proc-repair"
	case ActIORetry:
		return "io-retry"
	case ActIOExhausted:
		return "io-exhausted"
	case ActIODegraded:
		return "io-degraded"
	case ActIORestored:
		return "io-restored"
	case ActTick:
		return "tick"
	}
	return "unknown"
}

// Entry is one audited scheduler action. Procs is a copy of the job's
// processor set at the time of the action, nil for an empty set.
type Entry struct {
	Time   int64
	Action Action
	JobID  int
	Procs  []int
	// Static job attributes, so the checker needs no job table.
	Width   int
	RunTime int64
	Submit  int64
}

// auditChunk is the number of processor ints in one chunk of the
// audit log's slab, 8 KB. A log keeps the unused rest of its last chunk
// and of every chunk a set did not fit, and is retained with the run's
// Result: of 256, 512, 1024 and 4096, 1024 left the smallest heap after
// the SDSC observed sweep.
const auditChunk = 1024

// AuditLog is the chronological record of all scheduler actions in a
// run, consumed by the invariant checker (package check).
type AuditLog struct {
	Procs   int // machine size
	Entries []Entry

	// slab is the chunk the latest processor sets were copied into; its
	// free capacity takes the next ones.
	slab []int
}

// String renders the log one action per line in a canonical form. Two
// runs of a deterministic scheduler over the same trace must render
// byte-identically — the determinism regression test compares exactly
// this.
func (l *AuditLog) String() string {
	var b strings.Builder
	b.Grow(l.renderLen())
	_, _ = l.WriteTo(&b) // a strings.Builder does not fail
	return b.String()
}

// WriteTo streams the bytes of String to w in blocks of about 32 KB.
func (l *AuditLog) WriteTo(w io.Writer) (n int64, err error) {
	const block = 32 << 10
	buf := l.appendHeader(make([]byte, 0, block+512))
	flush := func() error {
		m, err := w.Write(buf)
		n += int64(m)
		buf = buf[:0]
		return err
	}
	for i := range l.Entries {
		if len(buf) >= block {
			if err := flush(); err != nil {
				return n, err
			}
		}
		buf = appendEntry(buf, &l.Entries[i])
	}
	err = flush()
	return n, err
}

// appendHeader appends the first line, "procs=%d entries=%d\n".
func (l *AuditLog) appendHeader(dst []byte) []byte {
	dst = append(dst, "procs="...)
	dst = strconv.AppendInt(dst, int64(l.Procs), 10)
	dst = append(dst, " entries="...)
	dst = strconv.AppendInt(dst, int64(len(l.Entries)), 10)
	return append(dst, '\n')
}

// appendEntry appends e's line, "t=%d %s job=%d width=%d run=%d
// submit=%d set=%v\n".
func appendEntry(dst []byte, e *Entry) []byte {
	dst = append(dst, "t="...)
	dst = strconv.AppendInt(dst, e.Time, 10)
	dst = append(dst, ' ')
	dst = append(dst, e.Action.String()...)
	dst = append(dst, " job="...)
	dst = strconv.AppendInt(dst, int64(e.JobID), 10)
	dst = append(dst, " width="...)
	dst = strconv.AppendInt(dst, int64(e.Width), 10)
	dst = append(dst, " run="...)
	dst = strconv.AppendInt(dst, e.RunTime, 10)
	dst = append(dst, " submit="...)
	dst = strconv.AppendInt(dst, e.Submit, 10)
	dst = append(dst, " set=["...)
	for i, p := range e.Procs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(p), 10)
	}
	return append(dst, "]\n"...)
}

// renderLen is the byte count of String.
func (l *AuditLog) renderLen() int {
	n := len("procs= entries=\n") + decimal.Len(int64(l.Procs)) + decimal.Len(int64(len(l.Entries)))
	for i := range l.Entries {
		e := &l.Entries[i]
		n += len("t=  job= width= run= submit= set=[]\n") + decimal.Len(e.Time) + len(e.Action.String()) +
			decimal.Len(int64(e.JobID)) + decimal.Len(int64(e.Width)) + decimal.Len(e.RunTime) + decimal.Len(e.Submit)
		if k := len(e.Procs); k > 1 {
			n += k - 1 // separating spaces
		}
		for _, p := range e.Procs {
			n += decimal.Len(int64(p))
		}
	}
	return n
}

// add appends one entry. It copies the processor set (an Event's set
// aliases live state) into the slab; the entry's view is capped at its
// length, so an append to one entry's Procs reallocates instead of
// overwriting the next entry's.
func (l *AuditLog) add(ent Entry) {
	if k := len(ent.Procs); k == 0 {
		ent.Procs = nil
	} else {
		if k > cap(l.slab)-len(l.slab) {
			l.slab = make([]int, 0, max(auditChunk, k))
		}
		i := len(l.slab)
		l.slab = append(l.slab, ent.Procs...)
		ent.Procs = l.slab[i : i+k : i+k]
	}
	l.Entries = append(l.Entries, ent)
}
