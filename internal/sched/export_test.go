package sched

// TickAlways wraps s so that the driver calls s.OnTick on every tick,
// ignoring the policy's QuietUntil requests: the reference run the
// quiet-tick differential test compares against.
func TickAlways(s Scheduler) Scheduler { return tickAlways{s} }

type tickAlways struct{ Scheduler }

func (t tickAlways) Init(env *Env) {
	env.tickAlways = true
	t.Scheduler.Init(env)
}

// QueuedCount returns the driver's count of jobs in state Queued and
// whether it also keeps the census list of them.
func QueuedCount(e *Env) (n int, listed bool) { return e.nQueued, e.queued != nil }
