package sched

import "pjs/internal/job"

// TickAlways wraps s so that the driver calls s.OnTick on every tick,
// ignoring the policy's QuietUntil requests: the reference run the
// quiet-tick differential test compares against.
func TickAlways(s Scheduler) Scheduler { return tickAlways{s} }

type tickAlways struct{ Scheduler }

func (t tickAlways) Init(env *Env) {
	env.tickAlways = true
	t.Scheduler.Init(env)
}

// RegionChunk is the most ints one allocation of processor-set regions
// holds.
const RegionChunk = regionChunk

// QueuedCount returns the driver's count of jobs in state Queued.
func QueuedCount(e *Env) int { return e.nQueued }

// PendingJobs returns the jobs of the driver's pending starts, in
// commit order.
func PendingJobs(e *Env) []*job.Job {
	jobs := make([]*job.Job, len(e.pending))
	for i, p := range e.pending {
		jobs[i] = p.j
	}
	return jobs
}

// IdleWidths returns the widths array the driver keeps in step with
// its wait queue.
func IdleWidths(e *Env) []int32 { return e.idle.widths }
