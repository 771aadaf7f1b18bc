// Package gang implements gang scheduling (Ousterhout matrix style, as
// in Feitelson & Jette), the classic alternative to backfilling that
// Section II of the paper contrasts with: jobs are packed into rows of a
// time-slicing matrix; every quantum the machine switches wholesale to
// the next row, suspending the active row's jobs and resuming the next
// row's on their remembered processors.
//
// Gang scheduling gives every job a CPU share quickly (good slowdowns
// for short jobs) but pays a full context sweep per quantum — under the
// paper's Section V-A overhead model each rotation writes and reads
// whole memory images, which is exactly why suspend/restart gang
// scheduling is unattractive on clusters and why the paper's *selective*
// preemption is interesting. The ablation-gang experiment quantifies
// this.
package gang

import (
	"fmt"

	"pjs/internal/job"
	"pjs/internal/sched"
)

// DefaultQuantum is the default time slice between row switches.
const DefaultQuantum = 600

// Config parameterizes the gang scheduler.
type Config struct {
	// Quantum is the row time slice in seconds (default 600).
	Quantum int64
}

// row is one line of the Ousterhout matrix: a set of jobs that run
// simultaneously; their processor demands sum to at most the machine.
type row struct {
	jobs []*job.Job
	used int
}

// Sched is the gang-scheduling policy.
type Sched struct {
	env         *sched.Env
	cfg         Config
	rows        []*row
	active      int
	target      int   // row being switched to, -1 when not rotating
	activeSince int64 // when the active row last took the machine
}

// New returns a gang scheduler.
func New(cfg Config) *Sched {
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	return &Sched{cfg: cfg, target: -1}
}

// Name implements sched.Scheduler.
func (s *Sched) Name() string { return fmt.Sprintf("Gang(Q=%ds)", s.cfg.Quantum) }

// Init implements sched.Scheduler.
func (s *Sched) Init(env *sched.Env) { s.env = env }

// TickInterval implements sched.Scheduler: one tick per quantum.
func (s *Sched) TickInterval() int64 { return s.cfg.Quantum }

// OnArrival implements sched.Scheduler: place the job in the first row
// with enough spare width (first-fit), opening a new row if none.
func (s *Sched) OnArrival(j *job.Job) {
	placed := -1
	for i, r := range s.rows {
		if r.used+j.Procs <= s.env.Cluster.Size() {
			r.jobs = append(r.jobs, j)
			r.used += j.Procs
			placed = i
			break
		}
	}
	if placed < 0 {
		s.rows = append(s.rows, &row{jobs: []*job.Job{j}, used: j.Procs})
		placed = len(s.rows) - 1
	}
	if placed == s.active && s.target < 0 {
		s.launchActive()
	}
}

// OnCompletion implements sched.Scheduler.
func (s *Sched) OnCompletion(j *job.Job) {
	for i, r := range s.rows {
		for k, q := range r.jobs {
			if q == j {
				r.jobs = append(r.jobs[:k], r.jobs[k+1:]...)
				r.used -= j.Procs
				if len(r.jobs) == 0 {
					s.removeRow(i)
				}
				// If the whole active row drained mid-quantum, rotate
				// early rather than idling the machine; if there is no
				// other row to rotate to (or removeRow retargeted
				// active), make sure the active row is launched.
				if s.target < 0 && s.activeRowIdle() {
					s.rotate()
					if s.target < 0 && len(s.rows) > 0 {
						s.launchActive()
					}
				}
				return
			}
		}
	}
	panic(fmt.Sprintf("gang: completed %v not found in any row", j))
}

// OnSuspendDone implements sched.Scheduler: when the drain finishes the
// target row takes the machine.
func (s *Sched) OnSuspendDone(*job.Job) {
	if s.target < 0 {
		return
	}
	for _, q := range s.rows[s.active].jobs {
		if q.State == job.Suspending {
			return // drain still in progress
		}
	}
	s.active = s.target
	s.target = -1
	s.launchActive()
}

// OnTick implements sched.Scheduler: quantum expiry. The quantum is
// measured from the moment the active row actually took the machine —
// under the overhead model, drains and restores eat wall-clock time and
// rotating on raw ticks would starve rows of compute progress entirely.
func (s *Sched) OnTick() {
	if s.target >= 0 {
		return // a slow drain (suspension writes) outlived the quantum
	}
	now := s.env.Now()
	if now-s.activeSince < s.cfg.Quantum {
		return
	}
	// Never rotate a row that is still restoring its memory images:
	// it has made no compute progress yet (with images larger than the
	// quantum this would otherwise livelock — the gang analogue of a
	// context-switch time exceeding the time slice).
	if len(s.rows) > 0 {
		for _, q := range s.rows[s.active].jobs {
			if q.StillReading(now) {
				return
			}
		}
	}
	s.rotate()
}

// OnFailure implements sched.Scheduler: displaced jobs keep their
// matrix row (membership is by width, which a failure does not change).
// Two pieces of drive-train must be restarted by hand, though: a drain
// whose last Suspending victim was fail-killed will never see its
// OnSuspendDone, and a fully killed active row should not idle the
// machine until the next quantum tick.
func (s *Sched) OnFailure(p int, requeued []*job.Job) {
	if s.target >= 0 {
		// Complete a stalled drain: the killed victim will not report.
		for _, q := range s.rows[s.active].jobs {
			if q.State == job.Suspending {
				return // drain genuinely still in progress
			}
		}
		s.active = s.target
		s.target = -1
		s.launchActive()
		return
	}
	if s.activeRowIdle() {
		s.rotate()
	}
	if s.target < 0 && len(s.rows) > 0 {
		s.relaunch()
	}
}

// OnRepair implements sched.Scheduler: retry the active row's idle
// members (killed or squeezed out while the machine was narrow) on the
// recovered capacity; other rows wait for their turn as usual.
func (s *Sched) OnRepair(int) {
	if s.target < 0 && len(s.rows) > 0 {
		s.relaunch()
	}
}

// rotate switches to the next non-empty row, if any. A lone row has
// nothing to switch to, but it may hold an idle job: one a drain left
// Suspended after the drain's target row emptied, or one a narrow or
// busy machine turned away. Nothing else would ever launch it, so the
// rotation relaunches the row in place.
func (s *Sched) rotate() {
	if len(s.rows) < 2 {
		if len(s.rows) == 1 {
			s.relaunch()
		}
		return
	}
	next := (s.active + 1) % len(s.rows)
	if next == s.active {
		return
	}
	draining := false
	for _, q := range s.rows[s.active].jobs {
		if q.State == job.Running {
			if !s.env.SetIOHealthy(q.ProcSet) {
				// Degraded-mode rotation: a job on processors over the
				// transient-I/O failure threshold keeps the machine through
				// the next quantum — its image write would likely fail, and
				// unconditional rotation would kill-and-requeue wide jobs
				// every quantum without ever letting them finish.
				continue
			}
			s.env.Suspend(q)
			draining = true
		}
	}
	if draining {
		s.target = next
		return
	}
	// Nothing to drain (all queued or finished): switch immediately.
	s.active = next
	s.launchActive()
}

// launchActive grants the active row a fresh quantum and launches it.
func (s *Sched) launchActive() {
	s.activeSince = s.env.Now()
	s.relaunch()
}

// relaunch starts/resumes every idle job of the active row without
// granting a fresh quantum. Launches are best-effort: on the fully
// drained machine of a no-fault run they cannot fail, but after a
// processor failure the surviving machine may be narrower than the row
// — a job that does not fit stays idle in its row and is retried on
// the next repair, rotation, or failure event.
func (s *Sched) relaunch() {
	for _, q := range s.rows[s.active].jobs {
		switch q.State {
		case job.Suspended:
			s.env.Resume(q)
		case job.Queued:
			s.env.StartFresh(q)
		case job.Running, job.Suspending, job.Finished:
			// Already launched (or done): nothing to relaunch.
		}
	}
}

// activeRowIdle reports whether no job of the active row holds the
// machine.
func (s *Sched) activeRowIdle() bool {
	if len(s.rows) == 0 {
		return true
	}
	for _, q := range s.rows[s.active].jobs {
		if q.State == job.Running || q.State == job.Suspending {
			return false
		}
	}
	return true
}

// removeRow deletes row i and fixes the active/target indices.
func (s *Sched) removeRow(i int) {
	s.rows = append(s.rows[:i], s.rows[i+1:]...)
	if len(s.rows) == 0 {
		s.active, s.target = 0, -1
		return
	}
	if s.active > i {
		s.active--
	}
	if s.active >= len(s.rows) {
		s.active = 0
	}
	if s.target > i {
		s.target--
	}
	if s.target >= len(s.rows) {
		s.target = len(s.rows) - 1
	}
	if s.target == s.active {
		s.target = -1
	}
}

// Rows returns the current matrix depth (for tests).
func (s *Sched) Rows() int { return len(s.rows) }
