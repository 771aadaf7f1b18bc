package obs

import (
	"fmt"
	"strings"

	"pjs/internal/job"
	"pjs/internal/report"
	"pjs/internal/sched"
)

// CategoryCounters is the per-job-category slice of the event counts
// (16-way Table I classification by actual run time).
type CategoryCounters struct {
	Starts, Resumes, Suspensions, Kills, Finishes int64
}

func (c CategoryCounters) zero() bool { return c == CategoryCounters{} }

// Counters accumulates engine event counts for one scheduler. It
// implements sched.Observer; feed it a whole run (or several runs of
// the same scheduler — counts are additive).
type Counters struct {
	// Scheduler labels the policy the counts belong to.
	Scheduler string
	// Procs is the machine size, carried for rate derivations.
	Procs int

	// Raw action counts, matching the audit log entry-for-entry (the
	// cross-validation test replays AuditLog.Entries against these).
	Arrivals, Starts, Resumes, SuspendBegins, SuspendDones, Finishes, Kills int64
	// Ticks counts scheduler-tick heartbeats (not audited).
	Ticks int64

	// BackfillStarts counts fresh starts that leapfrogged at least one
	// earlier-submitted job still waiting in the queue — the dispatches
	// a strict FCFS order would not have made.
	BackfillStarts int64
	// PreemptionWaves counts maximal runs of consecutive suspensions at
	// one virtual instant (one preemptive start suspending its victim
	// set is one wave); MaxChainDepth is the largest number of victims
	// in any single wave.
	PreemptionWaves int64
	MaxChainDepth   int64
	// SuspendedImageBytes totals the modeled memory images written out
	// by suspensions (MemPerProc × width per suspension).
	SuspendedImageBytes int64

	// Tally counts the fault and transient-I/O actions by the same rule
	// as the run's sched.Result. It stays zero without fault injection,
	// and the canonical String render then omits it, keeping no-fault
	// output byte-identical.
	sched.Tally

	// PerCategory breaks starts/resumes/suspensions/kills/finishes down
	// by the job's 16-way category.
	PerCategory [16]CategoryCounters

	// Backfill-detection state: the queued jobs, as (submit, id) keys.
	queued []queuedJob
	// Chain-depth state.
	chainTime int64
	chainLen  int64
	inChain   bool
	// prev is the last observed action, for Tally.Count.
	prev sched.Action
}

type queuedJob struct {
	submit int64
	id     int
}

// NewCounters returns an empty counter set for one scheduler on a
// machine of the given size.
func NewCounters(scheduler string, procs int) *Counters {
	return &Counters{Scheduler: scheduler, Procs: procs}
}

// Observe implements sched.Observer.
func (c *Counters) Observe(ev sched.Event) {
	if ev.Action == sched.ActSuspendBegin {
		if c.inChain && ev.Time == c.chainTime {
			c.chainLen++
		} else {
			c.inChain, c.chainTime, c.chainLen = true, ev.Time, 1
			c.PreemptionWaves++
		}
		if c.chainLen > c.MaxChainDepth {
			c.MaxChainDepth = c.chainLen
		}
	} else {
		c.inChain = false
	}

	c.Tally.Count(ev.Action, c.prev, ev.LostWork)
	c.prev = ev.Action

	j := ev.Job
	switch ev.Action {
	case sched.ActArrive:
		c.Arrivals++
		c.queued = append(c.queued, queuedJob{j.SubmitTime, j.ID})
	case sched.ActStart:
		c.Starts++
		c.PerCategory[j.Category().Index()].Starts++
		if c.dequeue(j) {
			c.BackfillStarts++
		}
	case sched.ActResume:
		c.Resumes++
		c.PerCategory[j.Category().Index()].Resumes++
	case sched.ActSuspendBegin:
		c.SuspendBegins++
		c.PerCategory[j.Category().Index()].Suspensions++
		c.SuspendedImageBytes += j.MemPerProc * int64(j.Procs)
	case sched.ActSuspendDone:
		c.SuspendDones++
	case sched.ActFinish:
		c.Finishes++
		c.PerCategory[j.Category().Index()].Finishes++
	case sched.ActKill:
		c.Kills++
		c.PerCategory[j.Category().Index()].Kills++
		// The killed job returns to the queue as if never run.
		c.queued = append(c.queued, queuedJob{j.SubmitTime, j.ID})
	case sched.ActImageLost:
		// The stranded job restarts from scratch: back in the queue.
		c.queued = append(c.queued, queuedJob{j.SubmitTime, j.ID})
	case sched.ActProcFail, sched.ActProcRepair, sched.ActIORetry,
		sched.ActIOExhausted, sched.ActIODegraded, sched.ActIORestored:
		// Counted only in c.Tally.
	case sched.ActTick:
		c.Ticks++
	}
}

// dequeue removes j from the queued set and reports whether any job
// submitted strictly earlier (ties broken by ID, the engine's FCFS
// order) is still waiting — i.e. whether this start was a backfill.
func (c *Counters) dequeue(j *job.Job) bool {
	leapfrogged := false
	kept := c.queued[:0]
	for _, q := range c.queued {
		if q.id == j.ID {
			continue
		}
		if q.submit < j.SubmitTime || (q.submit == j.SubmitTime && q.id < j.ID) {
			leapfrogged = true
		}
		kept = append(kept, q)
	}
	c.queued = kept
	return leapfrogged
}

// Snapshot returns a copy of the counts with the transient detection
// state cleared, safe to retain while the original keeps accumulating.
func (c *Counters) Snapshot() Counters {
	cp := *c
	cp.queued = nil
	cp.inChain = false
	cp.chainLen, cp.chainTime = 0, 0
	cp.prev = 0
	return cp
}

// Minus returns the count-wise difference c − prev, attributing the
// activity between two snapshots. MaxChainDepth is a high-water mark,
// not a count, so the difference keeps c's value.
func (c Counters) Minus(prev Counters) Counters {
	d := c
	d.Arrivals -= prev.Arrivals
	d.Starts -= prev.Starts
	d.Resumes -= prev.Resumes
	d.SuspendBegins -= prev.SuspendBegins
	d.SuspendDones -= prev.SuspendDones
	d.Finishes -= prev.Finishes
	d.Kills -= prev.Kills
	d.Ticks -= prev.Ticks
	d.BackfillStarts -= prev.BackfillStarts
	d.PreemptionWaves -= prev.PreemptionWaves
	d.SuspendedImageBytes -= prev.SuspendedImageBytes
	d.Tally = c.Tally.Minus(prev.Tally)
	for i := range d.PerCategory {
		d.PerCategory[i].Starts -= prev.PerCategory[i].Starts
		d.PerCategory[i].Resumes -= prev.PerCategory[i].Resumes
		d.PerCategory[i].Suspensions -= prev.PerCategory[i].Suspensions
		d.PerCategory[i].Kills -= prev.PerCategory[i].Kills
		d.PerCategory[i].Finishes -= prev.PerCategory[i].Finishes
	}
	return d
}

// IsZero reports whether every count (ignoring the machine size and the
// MaxChainDepth high-water mark) is zero — true for a scheduler a
// snapshot delta did not touch. The per-category cells need no separate
// check: they partition the action counts tested here.
func (c Counters) IsZero() bool {
	return c.Arrivals == 0 && c.Starts == 0 && c.Resumes == 0 &&
		c.SuspendBegins == 0 && c.SuspendDones == 0 && c.Finishes == 0 &&
		c.Kills == 0 && c.Ticks == 0 && c.BackfillStarts == 0 &&
		c.PreemptionWaves == 0 && c.SuspendedImageBytes == 0 &&
		c.Tally == sched.Tally{}
}

// String renders the counters in a canonical one-value-per-token form.
// Two identical runs must render byte-identically; the instrumented
// determinism regression compares exactly this.
func (c *Counters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheduler=%s procs=%d\n", c.Scheduler, c.Procs)
	fmt.Fprintf(&b, "arrivals=%d starts=%d resumes=%d suspend-begins=%d suspend-dones=%d finishes=%d kills=%d ticks=%d\n",
		c.Arrivals, c.Starts, c.Resumes, c.SuspendBegins, c.SuspendDones, c.Finishes, c.Kills, c.Ticks)
	fmt.Fprintf(&b, "backfill-starts=%d preemption-waves=%d max-chain-depth=%d suspended-image-bytes=%d\n",
		c.BackfillStarts, c.PreemptionWaves, c.MaxChainDepth, c.SuspendedImageBytes)
	if c.Failures != 0 || c.Repairs != 0 || c.ImagesLost != 0 || c.LostWorkSeconds != 0 {
		// Rendered only when fault injection produced activity, so
		// no-fault runs stay byte-identical to pre-fault builds.
		fmt.Fprintf(&b, "proc-fails=%d proc-repairs=%d image-losses=%d lost-work-seconds=%d\n",
			c.Failures, c.Repairs, c.ImagesLost, c.LostWorkSeconds)
	}
	if c.IORetries != 0 || c.IOExhaustions != 0 || c.IODegradations != 0 || c.IORestores != 0 {
		// Rendered only when transient I/O faults produced activity, so
		// runs without them stay byte-identical to earlier builds.
		fmt.Fprintf(&b, "io-retries=%d io-exhaustions=%d io-degradations=%d io-restores=%d\n",
			c.IORetries, c.IOExhaustions, c.IODegradations, c.IORestores)
	}
	for i, cc := range c.PerCategory {
		if cc.zero() {
			continue
		}
		fmt.Fprintf(&b, "cat=%s starts=%d resumes=%d suspensions=%d kills=%d finishes=%d\n",
			job.AllCategories()[i], cc.Starts, cc.Resumes, cc.Suspensions, cc.Kills, cc.Finishes)
	}
	return b.String()
}

// CategoryTable renders the per-category breakdown as a report table.
func (c *Counters) CategoryTable() *report.Table {
	cats := job.AllCategories()
	rows := make([]string, len(cats))
	for i, cat := range cats {
		rows[i] = cat.String()
	}
	t := report.NewTable(
		fmt.Sprintf("per-category engine counters (%s)", c.Scheduler),
		rows, []string{"starts", "resumes", "suspensions", "kills", "finishes"})
	for i, cc := range c.PerCategory {
		t.Set(i, 0, float64(cc.Starts))
		t.Set(i, 1, float64(cc.Resumes))
		t.Set(i, 2, float64(cc.Suspensions))
		t.Set(i, 3, float64(cc.Kills))
		t.Set(i, 4, float64(cc.Finishes))
	}
	return t
}

// CountersTable renders one row per counter set (typically one per
// scheduler, in registry order).
func CountersTable(title string, cs []Counters) *report.Table {
	rows := make([]string, len(cs))
	for i, c := range cs {
		rows[i] = c.Scheduler
	}
	t := report.NewTable(title, rows, []string{
		"arrivals", "starts", "backfills", "resumes", "suspends",
		"kills", "finishes", "waves", "max chain", "img MB", "ticks"})
	for i, c := range cs {
		t.Set(i, 0, float64(c.Arrivals))
		t.Set(i, 1, float64(c.Starts))
		t.Set(i, 2, float64(c.BackfillStarts))
		t.Set(i, 3, float64(c.Resumes))
		t.Set(i, 4, float64(c.SuspendBegins))
		t.Set(i, 5, float64(c.Kills))
		t.Set(i, 6, float64(c.Finishes))
		t.Set(i, 7, float64(c.PreemptionWaves))
		t.Set(i, 8, float64(c.MaxChainDepth))
		t.Set(i, 9, float64(c.SuspendedImageBytes)/(1<<20))
		t.Set(i, 10, float64(c.Ticks))
	}
	return t
}

// Registry keys one Counters per scheduler, in first-use order — the
// shape the experiment harness needs when many runs share policies.
type Registry struct {
	order  []string
	byName map[string]*Counters
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Counters)}
}

// For returns the counter set for the named scheduler, creating and
// registering it on first use.
func (r *Registry) For(scheduler string, procs int) *Counters {
	if c, ok := r.byName[scheduler]; ok {
		return c
	}
	c := NewCounters(scheduler, procs)
	r.byName[scheduler] = c
	r.order = append(r.order, scheduler)
	return c
}

// Snapshot returns copies of every counter set in registration order.
func (r *Registry) Snapshot() []Counters {
	out := make([]Counters, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.byName[name].Snapshot())
	}
	return out
}

// DeltaSnapshots subtracts a previous Snapshot from a current one,
// matching by scheduler name, and drops schedulers with no activity in
// the window. Schedulers new in cur appear with their full counts.
func DeltaSnapshots(cur, prev []Counters) []Counters {
	prevBy := make(map[string]Counters, len(prev))
	for _, p := range prev {
		prevBy[p.Scheduler] = p
	}
	var out []Counters
	for _, c := range cur {
		d := c
		if p, ok := prevBy[c.Scheduler]; ok {
			d = c.Minus(p)
		}
		if !d.IsZero() {
			out = append(out, d)
		}
	}
	return out
}
