// Package speculative implements speculative backfilling in the style of
// Perkovic & Keleher (the paper's reference [29], discussed at length in
// its Section V): on top of aggressive (EASY) backfilling, a queued job
// may be started in a free hole *shorter than its estimate*, gambling
// that the estimate is badly inflated and the job will finish early. If
// the gamble fails — the job is still running when the hole closes — the
// job is killed and requeued, losing all its work (no checkpointing).
//
// The Section V discussion predicts exactly what the ablation shows:
// jobs that really are short (aborting or badly over-estimated) see
// their slowdown collapse because they no longer wait for a
// full-estimate window, while honest long jobs are unaffected as long
// as the speculation gate is conservative.
package speculative

import (
	"slices"

	"pjs/internal/job"
	"pjs/internal/sched"
)

// Config parameterizes speculation.
type Config struct {
	// SpecFactor gates which jobs may gamble: a job is started
	// speculatively in a hole of length H only if estimate ≤
	// SpecFactor × H. Zero means DefaultFactor.
	SpecFactor float64
}

// MaxKills is how many failed gambles a job may suffer before it is
// only scheduled conventionally.
const MaxKills = 2

// Sched is the speculative-backfilling policy. It serves the driver's
// wait queue (sched.Env.Idle), which is in FCFS order.
type Sched struct {
	env *sched.Env
	cfg Config
	// gambles holds the running speculative starts in start order, the
	// order in which enforceDeadlines kills expired ones; each kill is
	// an audit entry, so this order cannot become the release order of
	// rels.
	gambles []gamble
	// rels lists the running jobs in release order for the head's
	// reservation, each under its releaseEnd at start.
	rels sched.Releases
}

// gamble is a speculative start and the time by which it must vacate
// its processors.
type gamble struct {
	j        *job.Job
	deadline int64
}

// DefaultFactor is the SpecFactor of a zero Config.
const DefaultFactor = 5

// New returns a speculative backfilling scheduler.
func New(cfg Config) *Sched {
	if cfg.SpecFactor == 0 {
		cfg.SpecFactor = DefaultFactor
	}
	return &Sched{cfg: cfg}
}

// Name implements sched.Scheduler.
func (s *Sched) Name() string { return "SpecBF" }

// Init implements sched.Scheduler.
func (s *Sched) Init(env *sched.Env) { s.env = env }

// TickInterval implements sched.Scheduler: deadlines are enforced at
// minute granularity, like the paper's preemption routine.
func (s *Sched) TickInterval() int64 { return 60 }

// OnArrival implements sched.Scheduler.
func (s *Sched) OnArrival(*job.Job) { s.schedule() }

// OnCompletion implements sched.Scheduler.
func (s *Sched) OnCompletion(j *job.Job) {
	s.stop(j)
	s.schedule()
}

// OnSuspendDone implements sched.Scheduler; never suspends.
func (s *Sched) OnSuspendDone(*job.Job) {}

// OnTick implements sched.Scheduler.
func (s *Sched) OnTick() {
	s.enforceDeadlines()
	s.schedule()
}

// OnFailure implements sched.Scheduler: a failure-killed job leaves
// the release list, and any speculative deadline dies with the run (the
// kill was the machine's, not a lost gamble — Kills is not charged, see
// Env.procFail). Every displaced job was running (this policy never
// suspends).
func (s *Sched) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		s.stop(j)
	}
	s.schedule()
}

// OnRepair implements sched.Scheduler: recovered capacity may admit the
// head or open new (speculative) holes.
func (s *Sched) OnRepair(int) { s.schedule() }

// enforceDeadlines kills speculative runs that outlived their hole while
// the queue head is still waiting for processors.
func (s *Sched) enforceDeadlines() {
	if len(s.env.Idle()) == 0 {
		return // nobody is delayed; let the gamble ride
	}
	now := s.env.Now()
	for _, g := range append([]gamble(nil), s.gambles...) {
		if now < g.deadline {
			continue
		}
		s.env.Kill(g.j)
		s.stop(g.j)
	}
}

// start launches j and tracks it; specDeadline > 0 marks a gamble.
func (s *Sched) start(j *job.Job, specDeadline int64) bool {
	if !s.env.StartFresh(j) {
		return false
	}
	if specDeadline > 0 {
		s.gambles = append(s.gambles, gamble{j: j, deadline: specDeadline})
	}
	s.rels.Insert(j, s.releaseEnd(j))
	return true
}

// stop forgets j, which left the machine: completed, killed, or
// displaced by a failure.
func (s *Sched) stop(j *job.Job) {
	s.rels.Remove(j, s.releaseEnd(j))
	if i := s.gambleOf(j); i >= 0 {
		s.gambles = slices.Delete(s.gambles, i, i+1)
	}
}

// gambleOf returns the index of j's gamble, or -1 when j does not
// gamble.
func (s *Sched) gambleOf(j *job.Job) int {
	return slices.IndexFunc(s.gambles, func(g gamble) bool { return g.j == j })
}

// releaseEnd is when running job j is expected to vacate its
// processors: by its speculation deadline (finish or kill) if it
// gambles and that comes first, otherwise by its ProjectedEnd. Both are
// fixed from its start on, because SpecBF never suspends and so never
// gives a job a restart read to extend.
func (s *Sched) releaseEnd(j *job.Job) int64 {
	end := j.ProjectedEnd()
	if i := s.gambleOf(j); i >= 0 {
		end = min(end, s.gambles[i].deadline)
	}
	return end
}

// schedule is EASY backfilling plus the speculative rule.
func (s *Sched) schedule() {
	for {
		queue := s.env.Idle()
		for len(queue) > 0 && s.start(queue[0], 0) {
			queue = s.env.Idle()
		}
		if len(queue) == 0 {
			return
		}
		// The head's reservation, as in EASY.
		free := s.env.Cluster.FreeUnclaimed()
		shadow, extra := s.rels.Shadow(free, queue[0].Procs)
		now := s.env.Now()
		started := false
		for i := s.env.Fitting(1, free); i < len(queue); i = s.env.Fitting(i+1, free) {
			j := queue[i]
			// Conventional EASY legality.
			if now+j.Estimate <= shadow || j.Procs <= extra {
				if s.start(j, 0) {
					started = true
					break
				}
				continue
			}
			// Speculative: gamble on a hole of length shadow-now.
			hole := shadow - now
			if hole <= 0 || j.Kills >= MaxKills {
				continue
			}
			if float64(j.Estimate) <= s.cfg.SpecFactor*float64(hole) {
				if s.start(j, shadow) {
					started = true
					break
				}
			}
		}
		if !started {
			return
		}
	}
}
