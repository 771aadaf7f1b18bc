// Package check validates simulation runs by replaying the scheduler's
// audit log against the physical invariants of the machine model:
//
//   - no processor is ever owned by two jobs at once;
//   - a suspended job restarts on exactly the processor set it was
//     suspended on (the local-preemption constraint of Section II-C);
//   - each job's run segments sum to its run time (work conservation;
//     with zero overhead the equality is exact);
//   - no job starts before it is submitted;
//   - a processor failure invalidates every suspended image on it;
//   - every job follows the legal lifecycle
//     arrive → start → (suspend-begin → suspend-done → resume)* → finish.
//
// The property tests run every scheduler over randomized workloads and
// feed the logs through Check.
package check

import (
	"fmt"
	"slices"

	"pjs/internal/sched"
)

// Options tune the strictness of the checker.
type Options struct {
	// ZeroOverhead asserts exact work conservation: the sum of a job's
	// run segments must equal its run time. Without it (an overhead
	// model was active) segments may exceed the run time by restart
	// reads.
	ZeroOverhead bool
	// AllowMigration waives the local-restart invariant for runs under
	// the migratable preemption model (a suspended job may resume on a
	// different processor set); all other invariants still apply.
	AllowMigration bool
}

// OptionsFor returns the options to check a run of s under opt with:
// exact work conservation unless overhead or transient read retries pad
// run segments, and no local-restart invariant if s migrates jobs.
func OptionsFor(s sched.Scheduler, opt sched.Options) Options {
	m, ok := s.(interface{ Migrates() bool })
	return Options{
		ZeroOverhead:   opt.Overhead == nil && !opt.Transient.Enabled(),
		AllowMigration: ok && m.Migrates(),
	}
}

type jobState int

const (
	stNone jobState = iota
	stArrived
	stRunning
	stSuspending
	stSuspended
	stFinished
)

type jobTrack struct {
	state    jobState
	submit   int64
	width    int
	runTime  int64
	procs    []int // current set, aliasing the log entry that dispatched it
	lastGo   int64 // last start/resume time
	ran      int64 // accumulated segment time
	suspends int
	everseen bool
}

// Check replays the audit log and returns the first invariant violation,
// or nil. The log must not change while Check runs: job tracks alias
// its processor sets.
func Check(log *sched.AuditLog, opt Options) error {
	if log == nil {
		return fmt.Errorf("check: nil audit log (run with Options.Audit)")
	}
	owner := make([]int, log.Procs)
	for i := range owner {
		owner[i] = -1
	}
	down := make([]bool, log.Procs)
	iodegraded := make([]bool, log.Procs)
	sets := stamp{mark: make([]uint32, log.Procs)}
	arrivals := 0
	for i := range log.Entries {
		if log.Entries[i].Action == sched.ActArrive {
			arrivals++
		}
	}
	// Tracks come from one slab sized for the arriving jobs; an entry of
	// a job that never arrived takes one from a small extra slab.
	jobs := make(map[int]*jobTrack, arrivals)
	slab := make([]jobTrack, arrivals)
	get := func(id int) *jobTrack {
		t, ok := jobs[id]
		if !ok {
			if len(slab) == 0 {
				slab = make([]jobTrack, 16)
			}
			t, slab = &slab[0], slab[1:]
			jobs[id] = t
		}
		return t
	}
	// stranded lists the suspended jobs whose image sat on the processor
	// that failed last (strandedOn). The failure's fallout — the kill of
	// the processor's owner, then one image-lost entry per stranded job —
	// must invalidate every one before any other entry.
	var stranded []int
	strandedOn := -1
	prevTime := int64(-1 << 62)
	for i, e := range log.Entries {
		if e.Time < prevTime {
			return fmt.Errorf("check: entry %d: time %d before %d", i, e.Time, prevTime)
		}
		prevTime = e.Time
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("check: entry %d (t=%d %v job %d): %s",
				i, e.Time, e.Action, e.JobID, fmt.Sprintf(format, args...))
		}
		if len(stranded) > 0 && e.Action != sched.ActKill && e.Action != sched.ActImageLost {
			return fail("job %d kept its suspended image on failed processor %d", stranded[0], strandedOn)
		}
		// Processor-level entries carry no job; handle them before the
		// job-track lookup so JobID -1 never creates a phantom track.
		if e.Action == sched.ActProcFail || e.Action == sched.ActProcRepair ||
			e.Action == sched.ActIODegraded || e.Action == sched.ActIORestored {
			if len(e.Procs) != 1 {
				return fail("processor event with %d processors", len(e.Procs))
			}
			p := e.Procs[0]
			if p < 0 || p >= log.Procs {
				return fail("processor %d out of range [0,%d)", p, log.Procs)
			}
			if e.Action == sched.ActProcFail {
				if down[p] {
					return fail("processor %d failed while already down", p)
				}
				down[p] = true
				stranded, strandedOn = strandedOnProc(jobs, p), p
			} else if e.Action == sched.ActProcRepair {
				if !down[p] {
					return fail("processor %d repaired while up", p)
				}
				down[p] = false
			} else if e.Action == sched.ActIODegraded {
				if iodegraded[p] {
					return fail("processor %d io-degraded while already degraded", p)
				}
				iodegraded[p] = true
			} else {
				if !iodegraded[p] {
					return fail("processor %d io-restored while not degraded", p)
				}
				iodegraded[p] = false
			}
			continue
		}
		t := get(e.JobID)
		switch e.Action {
		case sched.ActArrive:
			if t.state != stNone {
				return fail("duplicate arrival")
			}
			t.state = stArrived
			t.submit = e.Submit
			t.width = e.Width
			t.runTime = e.RunTime

		case sched.ActStart, sched.ActResume:
			resume := e.Action == sched.ActResume
			if resume && t.state != stSuspended {
				return fail("resume from state %d", t.state)
			}
			if !resume && t.state != stArrived {
				return fail("start from state %d", t.state)
			}
			if e.Time < t.submit {
				return fail("dispatch at %d before submit %d", e.Time, t.submit)
			}
			if len(e.Procs) != t.width {
				return fail("dispatched on %d processors, width %d", len(e.Procs), t.width)
			}
			if err := sets.validSet(e.Procs); err != nil {
				return fail("%v", err)
			}
			if resume && !opt.AllowMigration {
				if !sets.sameSet(e.Procs, t.procs) {
					return fail("local-restart violation: resumed on %v, suspended on %v", e.Procs, t.procs)
				}
			}
			for _, p := range e.Procs {
				if owner[p] != -1 {
					return fail("processor %d already owned by job %d", p, owner[p])
				}
				if down[p] {
					return fail("dispatch onto failed processor %d", p)
				}
				owner[p] = e.JobID
			}
			t.procs = e.Procs
			t.lastGo = e.Time
			t.state = stRunning

		case sched.ActSuspendBegin:
			if t.state != stRunning {
				return fail("suspend-begin from state %d", t.state)
			}
			t.ran += e.Time - t.lastGo
			t.suspends++
			t.state = stSuspending
			// The job still owns its processors during the write.

		case sched.ActSuspendDone:
			if t.state != stSuspending {
				return fail("suspend-done from state %d", t.state)
			}
			for _, p := range t.procs {
				if owner[p] != e.JobID {
					return fail("releasing processor %d owned by %d", p, owner[p])
				}
				owner[p] = -1
			}
			t.state = stSuspended

		case sched.ActKill:
			// A kill is legal from Running (speculative abort, or a
			// processor died under the job) and from Suspending (the
			// processor died during the image write) — in both states
			// the job still owns its processors.
			if t.state != stRunning && t.state != stSuspending {
				return fail("kill from state %d", t.state)
			}
			for _, p := range t.procs {
				if owner[p] != e.JobID {
					return fail("releasing processor %d owned by %d", p, owner[p])
				}
				owner[p] = -1
			}
			// All work is discarded: the job is queued as if fresh.
			t.ran = 0
			t.procs = nil
			t.state = stArrived

		case sched.ActIORetry, sched.ActIOExhausted:
			// A transient I/O failure during a suspend write (Suspending)
			// or a restart read (Running): the job keeps its state and its
			// processors. ActIOExhausted announces the terminal attempt;
			// the kill that follows does the releasing.
			if t.state != stRunning && t.state != stSuspending {
				return fail("%v from state %d", e.Action, t.state)
			}
			if !sets.sameSet(e.Procs, t.procs) {
				return fail("%v on set %v, job holds %v", e.Action, e.Procs, t.procs)
			}
			for _, p := range t.procs {
				if owner[p] != e.JobID {
					return fail("%v on processor %d owned by %d", e.Action, p, owner[p])
				}
			}

		case sched.ActImageLost:
			// A suspended job's image sat on a failed processor: it
			// returns to the queue from scratch. It held no processors,
			// so nothing is released.
			if t.state != stSuspended {
				return fail("image-lost from state %d", t.state)
			}
			if !sets.sameSet(e.Procs, t.procs) {
				return fail("image-lost set %v, suspended on %v", e.Procs, t.procs)
			}
			t.ran = 0
			t.procs = nil
			t.state = stArrived
			if k := slices.Index(stranded, e.JobID); k >= 0 {
				stranded = slices.Delete(stranded, k, k+1)
			}

		case sched.ActFinish:
			if t.state != stRunning {
				return fail("finish from state %d", t.state)
			}
			t.ran += e.Time - t.lastGo
			for _, p := range t.procs {
				if owner[p] != e.JobID {
					return fail("releasing processor %d owned by %d", p, owner[p])
				}
				owner[p] = -1
			}
			t.state = stFinished
			if opt.ZeroOverhead {
				if t.ran != t.runTime {
					return fail("work conservation: segments sum to %d, run time %d (after %d suspensions)",
						t.ran, t.runTime, t.suspends)
				}
			} else if t.ran < t.runTime {
				return fail("work conservation: segments sum to %d < run time %d", t.ran, t.runTime)
			}

		case sched.ActProcFail, sched.ActProcRepair, sched.ActIODegraded, sched.ActIORestored:
			// Handled before the job-track lookup above; never reached.

		case sched.ActTick:
			return fail("tick in the audit log")
		}
	}
	// Terminal conditions.
	if len(stranded) > 0 {
		return fmt.Errorf("check: job %d kept its suspended image on failed processor %d", stranded[0], strandedOn)
	}
	// Name the lowest unfinished ID, so that the message does not depend
	// on the map's order.
	unfinished := -1
	for id, t := range jobs {
		if t.state != stFinished && (unfinished == -1 || id < unfinished) {
			unfinished = id
		}
	}
	if unfinished != -1 {
		return fmt.Errorf("check: job %d ended in state %d, want finished", unfinished, jobs[unfinished].state)
	}
	for p, o := range owner {
		if o != -1 {
			return fmt.Errorf("check: processor %d still owned by job %d at end", p, o)
		}
	}
	return nil
}

// strandedOnProc returns, in ID order, the suspended jobs whose image
// includes processor p.
func strandedOnProc(jobs map[int]*jobTrack, p int) []int {
	var ids []int
	for id, t := range jobs {
		if t.state == stSuspended && slices.Contains(t.procs, p) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// stamp marks processors with the generation of the set being
// checked, one reused array in place of a map per dispatch and two
// sorted copies per comparison. Generation 0 is never current.
type stamp struct {
	mark []uint32 // per processor
	gen  uint32
}

// next starts a generation; on wrap-around it clears every mark.
func (s *stamp) next() uint32 {
	s.gen++
	if s.gen == 0 {
		clear(s.mark)
		s.gen = 1
	}
	return s.gen
}

// validSet verifies processor indices are unique and in range.
func (s *stamp) validSet(procs []int) error {
	g, n := s.next(), len(s.mark)
	for _, p := range procs {
		if p < 0 || p >= n {
			return fmt.Errorf("processor %d out of range [0,%d)", p, n)
		}
		if s.mark[p] == g {
			return fmt.Errorf("duplicate processor %d in set", p)
		}
		s.mark[p] = g
	}
	return nil
}

// sameSet compares processor sets regardless of order. b must be a set
// validSet accepted: a then matches it exactly when each of its
// elements claims a distinct processor of b.
func (s *stamp) sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	g := s.next()
	for _, p := range b {
		s.mark[p] = g
	}
	for _, p := range a {
		if p < 0 || p >= len(s.mark) || s.mark[p] != g {
			return false
		}
		s.mark[p] = 0 // claimed
	}
	return true
}
