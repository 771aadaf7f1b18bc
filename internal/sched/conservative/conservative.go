// Package conservative implements conservative backfilling
// (Section II-A-1): every job receives a start-time reservation (its
// "anchor point") when it is submitted, and a job may backfill only if it
// delays no previously queued job. When a running job terminates earlier
// than its estimate, the schedule is compressed: reservations are
// released in order of increasing start time and each job is re-anchored
// at the earliest hole that now fits it.
package conservative

import (
	"fmt"
	"sort"

	"pjs/internal/job"
	"pjs/internal/perf"
	"pjs/internal/sched"
)

// reservation is a queued job's guaranteed start.
type reservation struct {
	j     *job.Job
	start int64
}

// Sched is the conservative-backfilling policy. Its reservations cover
// the driver's wait queue (sched.Env.Idle), and its profiles start from
// the driver's running jobs (sched.Env.Running).
type Sched struct {
	env   *sched.Env
	resvs []reservation // sorted by start, then queue order
}

// New returns a conservative backfilling scheduler.
func New() *Sched { return &Sched{} }

// Name implements sched.Scheduler.
func (s *Sched) Name() string { return "Conservative" }

// Init implements sched.Scheduler.
func (s *Sched) Init(env *sched.Env) { s.env = env }

// TickInterval implements sched.Scheduler: purely event-driven.
func (s *Sched) TickInterval() int64 { return 0 }

// OnArrival implements sched.Scheduler: anchor the new job against the
// current usage profile (running jobs + all existing reservations).
func (s *Sched) OnArrival(j *job.Job) {
	now := s.env.Now()
	if j.Procs > s.env.Cluster.UpCount() {
		s.insertResv(reservation{j: j, start: sched.FarFuture})
		return
	}
	span := s.env.Probe().Begin()
	p := sched.RunningProfile(now, s.env.Cluster.UpCount(), s.env.Running())
	for _, r := range s.resvs {
		if r.start >= sched.FarFuture {
			continue // wider than the surviving machine, not in the profile
		}
		p.Sub(r.start, r.start+r.j.Estimate, r.j.Procs)
	}
	anchor := p.FindStart(now, j.Procs, j.Estimate)
	s.env.Probe().End(perf.PhaseBackfillWindow, span)
	if anchor == now {
		s.mustStart(j)
		return
	}
	s.insertResv(reservation{j: j, start: anchor})
}

// OnCompletion implements sched.Scheduler: compress the schedule. All
// reservations are released in order of increasing guaranteed start and
// re-anchored against the shrunken profile; in the worst case each job
// is reinserted where it was.
func (s *Sched) OnCompletion(*job.Job) { s.reanchor(s.resvs) }

// OnSuspendDone implements sched.Scheduler; never suspends.
func (s *Sched) OnSuspendDone(*job.Job) {}

// OnTick implements sched.Scheduler.
func (s *Sched) OnTick() {}

// OnFailure implements sched.Scheduler: displaced jobs lose their run
// and every guarantee is recomputed from scratch against the surviving
// machine — the capacity loss may push any anchor later, so nothing
// short of a full rebuild keeps the profile sound.
func (s *Sched) OnFailure(int, []*job.Job) { s.rebuild() }

// OnRepair implements sched.Scheduler: the recovered processor may pull
// every anchor earlier (and re-admit jobs parked at sched.FarFuture), so the
// schedule is rebuilt just like after a failure.
func (s *Sched) OnRepair(int) { s.rebuild() }

// rebuild re-anchors every queued job — the reserved ones and the
// jobs a failure displaced — in the FCFS order of the driver's wait
// queue against the surviving machine. It walks a copy, because the
// starts of reanchor shrink the queue.
func (s *Sched) rebuild() {
	idle := s.env.Idle()
	queue := make([]reservation, len(idle))
	for i, j := range idle {
		queue[i].j = j
	}
	s.reanchor(queue)
}

// reanchor releases every reservation and anchors the jobs of queue, in
// its order, against the running jobs on the surviving machine: a job
// whose anchor is now starts, one wider than the machine waits at
// sched.FarFuture, and each anchor is charged to the profile the later
// jobs see.
func (s *Sched) reanchor(queue []reservation) {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseQueueScan, span)
	now := s.env.Now()
	s.resvs = nil
	p := sched.RunningProfile(now, s.env.Cluster.UpCount(), s.env.Running())
	capacity := s.env.Cluster.UpCount()
	for _, r := range queue {
		j := r.j
		if j.Procs > capacity {
			s.insertResv(reservation{j: j, start: sched.FarFuture})
			continue
		}
		anchor := p.FindStart(now, j.Procs, j.Estimate)
		if anchor == now && s.env.Cluster.FreeUnclaimed() >= j.Procs {
			s.mustStart(j)
		} else {
			s.insertResv(reservation{j: j, start: anchor})
		}
		p.Sub(anchor, anchor+j.Estimate, j.Procs)
	}
}

// mustStart launches a job whose anchor is now; the profile guarantees
// processors are free, so failure is a bug.
func (s *Sched) mustStart(j *job.Job) {
	if !s.env.StartFresh(j) {
		panic(fmt.Sprintf("conservative: anchored job %v does not fit", j))
	}
}

// insertResv keeps reservations sorted by start time (stable in queue
// order for equal starts).
func (s *Sched) insertResv(r reservation) {
	i := sort.Search(len(s.resvs), func(i int) bool { return s.resvs[i].start > r.start })
	s.resvs = append(s.resvs, reservation{})
	copy(s.resvs[i+1:], s.resvs[i:])
	s.resvs[i] = r
}
