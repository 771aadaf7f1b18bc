// Custom scheduler: extending the framework with a policy of your own.
//
// This example implements preemptive shortest-job-first (P-SJF): the
// queue is served shortest-estimate-first, and every minute the shortest
// waiting job may suspend the running job with the longest estimated
// remaining time if it is at least twice as long. It plugs into the same
// Scheduler interface the paper's policies use, and is compared against
// NS and TSS on a small workload.
//
//	go run ./examples/customsched
package main

import (
	"cmp"
	"fmt"
	"slices"

	"pjs"
	"pjs/internal/job"
	"pjs/internal/sched"
)

// psjf is a minimal preemptive shortest-job-first policy. It reads the
// waiting and the running jobs from the driver (env.Idle, env.Running)
// and keeps no list of its own. Embedding sched.IgnoreFailures opts out
// of the failure hooks (OnFailure / OnRepair) with no-ops — fine here
// because this example never enables fault injection; a fault-aware
// policy would implement them instead.
type psjf struct {
	sched.IgnoreFailures
	env     *sched.Env
	waiting []*job.Job // scratch for shortest()
}

func (s *psjf) Name() string           { return "P-SJF" }
func (s *psjf) Init(env *sched.Env)    { s.env = env }
func (s *psjf) TickInterval() int64    { return 60 }
func (s *psjf) OnArrival(*job.Job)     { s.pass() }
func (s *psjf) OnSuspendDone(*job.Job) { s.pass() }
func (s *psjf) OnCompletion(*job.Job)  { s.pass() }

// shortest returns the waiting jobs shortest estimate first, ties by
// submission then ID. The driver keeps them in FCFS order and its slice
// is only valid until the next start, so a policy with an order of its
// own sorts a copy.
func (s *psjf) shortest() []*job.Job {
	s.waiting = append(s.waiting[:0], s.env.Idle()...)
	slices.SortFunc(s.waiting, func(a, b *job.Job) int {
		return cmp.Or(cmp.Compare(a.Estimate, b.Estimate),
			cmp.Compare(a.SubmitTime, b.SubmitTime), cmp.Compare(a.ID, b.ID))
	})
	return s.waiting
}

// pass starts waiting jobs shortest-first whenever they fit.
func (s *psjf) pass() {
	for _, j := range s.shortest() {
		if j.State == job.Suspended {
			s.env.Resume(j)
		} else {
			s.env.StartFresh(j)
		}
	}
}

// OnTick suspends the running job with the longest estimated remaining
// time, the lowest ID among equals, when a much shorter job waits.
func (s *psjf) OnTick() {
	waiting := s.shortest()
	if len(waiting) == 0 {
		return
	}
	short := waiting[0]
	if short.State == job.Suspended {
		return // reentry needs its exact set; keep it simple and wait
	}
	var victim *job.Job
	for _, r := range s.env.Running() {
		if victim == nil || r.EstimatedRemaining() > victim.EstimatedRemaining() ||
			r.EstimatedRemaining() == victim.EstimatedRemaining() && r.ID < victim.ID {
			victim = r
		}
	}
	if victim == nil || victim.Procs < short.Procs {
		return
	}
	if victim.EstimatedRemaining() < 2*short.EstimatedRemaining() {
		return
	}
	claim := s.env.Cluster.ListFreeUnclaimed(short.Procs, nil)
	for _, p := range victim.ProcSet {
		if len(claim) == short.Procs {
			break
		}
		claim = append(claim, p)
	}
	s.env.PreemptAndStart(short, []*job.Job{victim}, claim)
	s.pass()
}

func main() {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 2000, Seed: 5})
	fmt.Printf("%-10s %12s %12s %12s\n", "scheduler", "overall sd", "worst sd", "suspensions")
	for _, s := range []pjs.Scheduler{
		mustSched("ns"),
		mustSched("tss:2"),
		&psjf{},
	} {
		res := pjs.Simulate(trace, s, pjs.Options{})
		sum := pjs.Summarize(res, pjs.All)
		fmt.Printf("%-10s %12.2f %12.1f %12d\n",
			s.Name(), sum.Overall.MeanSlowdown, sum.Overall.WorstSlowdown, res.Suspensions)
	}
}

func mustSched(spec string) pjs.Scheduler {
	s, err := pjs.NewScheduler(spec)
	if err != nil {
		panic(err)
	}
	return s
}
