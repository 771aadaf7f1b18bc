package sched

import "pjs/internal/job"

// Tally counts a run's fault and transient-I/O actions. Result embeds
// it, and so do obs.Counters and the experiment memo, so every copy of
// these counts is one type filled by one rule (Count). The JSON tags are
// the experiment memo's on-disk field names.
type Tally struct {
	// Failures and Repairs count injected processor fail/repair events.
	Failures int `json:"failures,omitempty"`
	Repairs  int `json:"repairs,omitempty"`
	// FailKills counts running/suspending jobs killed by a processor
	// failure; ImagesLost counts suspended jobs invalidated because
	// their memory image sat on a failed processor.
	FailKills  int `json:"fail_kills,omitempty"`
	ImagesLost int `json:"images_lost,omitempty"`
	// LostWorkSeconds totals the compute seconds discarded by failure
	// kills, stranded images, and exhausted I/O retries.
	LostWorkSeconds int64 `json:"lost_work_seconds,omitempty"`
	// IORetries counts transient suspend-write/restart-read failures
	// that were retried after backoff; IOExhaustions counts operations
	// that failed on their final permitted attempt (the job was killed
	// back to the queue).
	IORetries     int `json:"io_retries,omitempty"`
	IOExhaustions int `json:"io_exhaustions,omitempty"`
	// IODegradations counts processors crossing the windowed I/O
	// failure threshold (excluded from victim selection); IORestores
	// counts recoveries once the window cleared.
	IODegradations int `json:"io_degradations,omitempty"`
	IORestores     int `json:"io_restores,omitempty"`
}

// Count adds one recorded action, which discarded lost compute seconds,
// to the tally. prev is the action recorded just before it: a kill that
// directly follows a processor failure is that failure's kill, because
// HandleProcFail records the failure and then kills at most one owner
// before recording anything else.
func (t *Tally) Count(act, prev Action, lost int64) {
	t.LostWorkSeconds += lost
	switch act {
	case ActProcFail:
		t.Failures++
	case ActProcRepair:
		t.Repairs++
	case ActKill:
		if prev == ActProcFail {
			t.FailKills++
		}
	case ActImageLost:
		t.ImagesLost++
	case ActIORetry:
		t.IORetries++
	case ActIOExhausted:
		t.IOExhaustions++
	case ActIODegraded:
		t.IODegradations++
	case ActIORestored:
		t.IORestores++
	case ActArrive, ActStart, ActResume, ActSuspendBegin, ActSuspendDone, ActFinish, ActTick:
		// Not a fault or I/O action.
	}
}

// Minus returns the count-wise difference t − prev.
func (t Tally) Minus(prev Tally) Tally {
	return Tally{
		Failures:        t.Failures - prev.Failures,
		Repairs:         t.Repairs - prev.Repairs,
		FailKills:       t.FailKills - prev.FailKills,
		ImagesLost:      t.ImagesLost - prev.ImagesLost,
		LostWorkSeconds: t.LostWorkSeconds - prev.LostWorkSeconds,
		IORetries:       t.IORetries - prev.IORetries,
		IOExhaustions:   t.IOExhaustions - prev.IOExhaustions,
		IODegradations:  t.IODegradations - prev.IODegradations,
		IORestores:      t.IORestores - prev.IORestores,
	}
}

// jobEvent builds the record of action act on job j over procs.
func jobEvent(act Action, j *job.Job, procs []int) Event {
	return Event{
		Entry: Entry{Action: act, JobID: j.ID, Procs: procs,
			Width: j.Procs, RunTime: j.RunTime, Submit: j.SubmitTime},
		Job: j,
	}
}

// procEvent builds the record of processor-level action act on p: no
// job (JobID -1) and p as the set. The set aliases a scratch buffer, as
// a job action's set aliases the job's live processors.
func (e *Env) procEvent(act Action, p int) Event {
	e.procBuf[0] = p
	return Event{Entry: Entry{Action: act, JobID: -1, Procs: e.procBuf[:]}}
}

// record is the driver's one funnel for its actions: every start,
// suspension, kill, fault and tick the driver performs is one Event
// passed here. From that value it advances the tally and the watermark
// hash, appends the audit entry (copying the set), and — only when a
// sink is attached — fills in the census and calls the observer. ActTick
// heartbeats reach observers only; they never enter the hash or the
// audit log. With no audit log and no observer, record only counts and
// hashes.
//
//lint:allocfree no audit log and no observer
func (e *Env) record(ev Event) {
	ev.Time = e.engine.Now()
	e.tally.Count(ev.Action, e.prevAct, ev.LostWork)
	e.prevAct = ev.Action
	if ev.Action != ActTick {
		e.mixEntry(&ev.Entry)
	}
	if e.Audit == nil && e.obs == nil {
		return
	}
	if e.Audit != nil && ev.Action != ActTick {
		e.Audit.add(ev.Entry)
	}
	if e.obs != nil {
		// The census scan (O(jobs) for the max queued xfactor) runs
		// only when a sink is attached.
		for _, q := range e.jobs {
			if q.State == job.Queued && q.SubmitTime <= ev.Time {
				if xf := q.XFactor(ev.Time); xf > ev.MaxQueuedXFactor {
					ev.MaxQueuedXFactor = xf
				}
			}
		}
		ev.Busy = e.Cluster.Busy()
		ev.Up = e.Cluster.UpCount()
		ev.Queued, ev.Running, ev.Suspended = e.nQueued, e.nRunning, e.nSuspended
		e.obs.Observe(ev)
	}
}
