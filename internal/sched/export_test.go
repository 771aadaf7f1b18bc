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
