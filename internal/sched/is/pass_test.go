package is

import (
	"testing"

	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// passAllocs wraps IS and, after every hook, requires that the hook's
// pass left no job able to act, then measures the allocations of
// repeating the pass, which then collects no actor and changes no
// state.
type passAllocs struct {
	*Sched
	t        testing.TB
	measured int
	worst    float64
}

func (w *passAllocs) OnArrival(j *job.Job)     { w.Sched.OnArrival(j); w.measure("arrival") }
func (w *passAllocs) OnCompletion(j *job.Job)  { w.Sched.OnCompletion(j); w.measure("completion") }
func (w *passAllocs) OnSuspendDone(j *job.Job) { w.Sched.OnSuspendDone(j); w.measure("suspend-done") }
func (w *passAllocs) OnTick()                  { w.Sched.OnTick(); w.measure("tick") }

func (w *passAllocs) measure(hook string) {
	w.t.Helper()
	if len(w.env.Idle()) == 0 {
		return
	}
	if w.actors(w.env.Now()); len(w.idle) > 0 {
		w.t.Fatalf("at %d after %s: %v can still act", w.env.Now(), hook, w.idle[0])
	}
	w.measured++
	w.worst = max(w.worst, testing.AllocsPerRun(5, w.schedule))
}

// TestPassWithoutActorAllocatesNothing pins the pass filter's two
// properties on a loaded run: a hook's pass leaves no job that could
// act, since capacity only shrinks during the pass, and once warmed, a
// pass without an actor — the common one at an arrival, completion or
// suspend-done on a loaded machine — allocates nothing.
func TestPassWithoutActorAllocatesNothing(t *testing.T) {
	w := &passAllocs{Sched: New(), t: t}
	tr := workload.Generate(workload.SDSC(), workload.GenOptions{Jobs: 500, Seed: 3}).ScaleLoad(1.3)
	res := sched.Run(tr, w, sched.Options{Overhead: overhead.Disk{}})
	if w.measured == 0 || res.Suspensions == 0 {
		t.Fatalf("measured %d passes over %d suspensions; the trace no longer exercises the pass", w.measured, res.Suspensions)
	}
	t.Logf("measured %d passes", w.measured)
	if w.worst != 0 {
		t.Fatalf("a pass without an actor allocated %v times, want 0", w.worst)
	}
}
