package check

import (
	"fmt"
	"math"
	"testing"

	"pjs/internal/sched"
	"pjs/internal/sched/ss"
	"pjs/internal/workload"
)

// WasteReport quantifies idle capacity from an audit log and how much of
// it is a *scheduling* waste: instants where a queued job that has never
// started would fit the idle processors but was not started. A
// work-conserving policy (like Selective Suspension's reservation-free
// backfilling) should show zero violation time; EASY/conservative
// legitimately hold processors for reservations. TestSSIsWorkConserving
// checks the first.
type WasteReport struct {
	// Span is the analyzed interval (first entry to Until).
	Span int64
	// IdleProcSeconds is the integral of unowned processors.
	IdleProcSeconds int64
	// ViolationSeconds is the total time during which at least one
	// queued never-started job would fit the idle processors.
	ViolationSeconds int64
	// Capacity is machine size × Span.
	Capacity int64
}

// IdleFraction returns idle capacity as a fraction of total capacity.
func (w WasteReport) IdleFraction() float64 {
	if w.Capacity == 0 {
		return 0
	}
	return float64(w.IdleProcSeconds) / float64(w.Capacity)
}

// ViolationFraction returns violation time as a fraction of the span.
func (w WasteReport) ViolationFraction() float64 {
	if w.Span == 0 {
		return 0
	}
	return float64(w.ViolationSeconds) / float64(w.Span)
}

// Waste replays the audit log up to time until (0 = the whole log) and
// integrates idle capacity and fit violations. Suspended jobs are not
// counted as "queued" — under local restart they can only use their own
// processor set, so idle capacity elsewhere is not actionable for them.
func Waste(log *sched.AuditLog, until int64) (WasteReport, error) {
	if log == nil {
		return WasteReport{}, fmt.Errorf("check: nil audit log")
	}
	if len(log.Entries) == 0 {
		return WasteReport{}, nil
	}
	if until == 0 {
		until = log.Entries[len(log.Entries)-1].Time
	}
	// queuedWidths[w] = number of never-started queued jobs of width w.
	queuedWidths := make([]int, log.Procs+1)
	minQueued := log.Procs + 1
	recalcMin := func() {
		minQueued = log.Procs + 1
		for w := 1; w <= log.Procs; w++ {
			if queuedWidths[w] > 0 {
				minQueued = w
				break
			}
		}
	}
	started := make(map[int]bool)
	busy := 0
	var rep WasteReport
	rep.Span = until - log.Entries[0].Time
	rep.Capacity = int64(log.Procs) * rep.Span
	prev := log.Entries[0].Time

	account := func(to int64) {
		if to > until {
			to = until
		}
		if to <= prev {
			return
		}
		idle := log.Procs - busy
		if idle > 0 {
			rep.IdleProcSeconds += int64(idle) * (to - prev)
			if minQueued <= idle {
				rep.ViolationSeconds += to - prev
			}
		}
		prev = to
	}

	for _, e := range log.Entries {
		account(e.Time)
		switch e.Action {
		case sched.ActArrive:
			queuedWidths[e.Width]++
			if e.Width < minQueued {
				minQueued = e.Width
			}
		case sched.ActStart:
			if !started[e.JobID] {
				started[e.JobID] = true
				queuedWidths[e.Width]--
				if e.Width == minQueued && queuedWidths[e.Width] == 0 {
					recalcMin()
				}
			}
			busy += len(e.Procs)
		case sched.ActResume:
			busy += len(e.Procs)
		case sched.ActSuspendDone, sched.ActFinish:
			busy -= len(e.Procs)
		case sched.ActKill:
			// The job is requeued as never-started: it can again use
			// any processors.
			busy -= len(e.Procs)
			started[e.JobID] = false
			queuedWidths[e.Width]++
			if e.Width < minQueued {
				minQueued = e.Width
			}
		case sched.ActImageLost:
			// A suspended job's image sat on a failed processor: the job
			// is requeued as never-started. It held no processors (the
			// suspend already released them), so busy is unchanged, but
			// its width re-enters the queued profile for the
			// violation-window accounting.
			started[e.JobID] = false
			queuedWidths[e.Width]++
			if e.Width < minQueued {
				minQueued = e.Width
			}
		case sched.ActSuspendBegin, sched.ActProcFail, sched.ActProcRepair,
			sched.ActIORetry, sched.ActIOExhausted, sched.ActIODegraded,
			sched.ActIORestored, sched.ActTick:
			// No occupancy or queue change: a suspending job still holds
			// its processors until ActSuspendDone, transient I/O retries
			// and health transitions move no processors, and
			// processor/tick entries carry no job.
		}
	}
	account(until)
	return rep, nil
}

// SS's reservation-free backfilling is work-conserving for fresh jobs:
// at no instant does a queued never-started job fit the idle processors
// without being started. Any idle capacity under SS is attributable to
// suspended jobs' occupied processor sets — the structural cost of
// local restart that the migration ablation removes.
func TestSSIsWorkConserving(t *testing.T) {
	m := workload.SDSC()
	tr := workload.Generate(m, workload.GenOptions{Jobs: 1200, Seed: 13}).ScaleLoad(1.5)
	_, lastArr := tr.Span()
	res := sched.Run(tr, ss.New(ss.Config{SF: 2}), sched.Options{Audit: true, MaxSteps: 50_000_000})
	rep, err := Waste(res.Audit, lastArr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationSeconds != 0 {
		t.Errorf("fit violations for %v s (%.2f%% of the loaded span)",
			rep.ViolationSeconds, 100*rep.ViolationFraction())
	}
}

func TestWasteNilAndEmpty(t *testing.T) {
	if _, err := Waste(nil, 0); err == nil {
		t.Error("nil log must error")
	}
	rep, err := Waste(&sched.AuditLog{Procs: 4}, 0)
	if err != nil || rep.Span != 0 {
		t.Errorf("empty log: %v %+v", err, rep)
	}
}

func TestWasteIdleIntegral(t *testing.T) {
	// 4-proc machine: a 2-proc job runs [10,110); idle is 4 procs for
	// [0,10) and 2 procs for [10,110).
	b := newLog(4)
	b.add(0, sched.ActArrive, 1, nil, 2, 100, 0)
	b.add(10, sched.ActStart, 1, []int{0, 1}, 2, 100, 0)
	b.add(110, sched.ActFinish, 1, []int{0, 1}, 2, 100, 0)
	rep, err := Waste(&b.log, 110)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(4*10 + 2*100)
	if rep.IdleProcSeconds != want {
		t.Errorf("idle = %d, want %d", rep.IdleProcSeconds, want)
	}
	// Job 1 was queued [0,10) with width 2 ≤ idle 4: violation.
	if rep.ViolationSeconds != 10 {
		t.Errorf("violation = %d, want 10", rep.ViolationSeconds)
	}
}

func TestWasteNoViolationWhenNothingFits(t *testing.T) {
	// 4-proc machine: 3-proc job runs; a queued 2-proc job would fit
	// the single... no: idle=1 < 2 → no violation.
	b := newLog(4)
	b.add(0, sched.ActArrive, 1, nil, 3, 100, 0)
	b.add(0, sched.ActStart, 1, []int{0, 1, 2}, 3, 100, 0)
	b.add(5, sched.ActArrive, 2, nil, 2, 50, 5)
	b.add(100, sched.ActFinish, 1, []int{0, 1, 2}, 3, 100, 0)
	b.add(100, sched.ActStart, 2, []int{0, 1}, 2, 50, 5)
	b.add(150, sched.ActFinish, 2, []int{0, 1}, 2, 50, 5)
	rep, err := Waste(&b.log, 150)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationSeconds != 0 {
		t.Errorf("violation = %d, want 0", rep.ViolationSeconds)
	}
}

func TestWasteSuspendedJobsNotCounted(t *testing.T) {
	// A suspended job waiting for its set is not a queued candidate:
	// idle capacity it cannot use is not a violation.
	b := okLog() // job suspended [35,40) with machine otherwise idle
	rep, err := Waste(&b.log, 120)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationSeconds != 10 { // only the queued interval [0,10)
		t.Errorf("violation = %d, want 10 (the pre-start queue time)", rep.ViolationSeconds)
	}
}

func TestWasteFractions(t *testing.T) {
	b := newLog(2)
	b.add(0, sched.ActArrive, 1, nil, 2, 50, 0)
	b.add(50, sched.ActStart, 1, []int{0, 1}, 2, 50, 0)
	b.add(100, sched.ActFinish, 1, []int{0, 1}, 2, 50, 0)
	rep, err := Waste(&b.log, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.IdleFraction()-0.5) > 1e-9 {
		t.Errorf("idle fraction = %v, want 0.5", rep.IdleFraction())
	}
	if math.Abs(rep.ViolationFraction()-0.5) > 1e-9 {
		t.Errorf("violation fraction = %v, want 0.5", rep.ViolationFraction())
	}
}

func TestWasteUntilTruncates(t *testing.T) {
	b := newLog(2)
	b.add(0, sched.ActArrive, 1, nil, 2, 50, 0)
	b.add(50, sched.ActStart, 1, []int{0, 1}, 2, 50, 0)
	b.add(100, sched.ActFinish, 1, []int{0, 1}, 2, 50, 0)
	rep, err := Waste(&b.log, 25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Span != 25 || rep.IdleProcSeconds != 50 {
		t.Errorf("truncated report: %+v", rep)
	}
}
