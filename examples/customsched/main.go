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
	"fmt"
	"sort"

	"pjs"
	"pjs/internal/job"
	"pjs/internal/sched"
)

// psjf is a minimal preemptive shortest-job-first policy. It keeps its
// own queue, because it serves waiting jobs in an order of its own, and
// reads the running jobs from the driver (env.Running). Embedding
// sched.IgnoreFailures opts out of the failure hooks (OnFailure /
// OnRepair) with no-ops — fine here because this example never enables
// fault injection; a fault-aware policy would implement them instead.
type psjf struct {
	sched.IgnoreFailures
	env   *sched.Env
	queue []*job.Job
}

func (s *psjf) Name() string             { return "P-SJF" }
func (s *psjf) Init(env *sched.Env)      { s.env = env }
func (s *psjf) TickInterval() int64      { return 60 }
func (s *psjf) OnArrival(j *job.Job)     { s.queue = append(s.queue, j); s.pass() }
func (s *psjf) OnSuspendDone(j *job.Job) { s.queue = append(s.queue, j); s.pass() }
func (s *psjf) OnCompletion(*job.Job)    { s.pass() }

// pass starts queued jobs shortest-first whenever they fit.
func (s *psjf) pass() {
	sort.SliceStable(s.queue, func(i, k int) bool {
		return s.queue[i].Estimate < s.queue[k].Estimate
	})
	for _, j := range append([]*job.Job(nil), s.queue...) {
		ok := false
		if j.State == job.Suspended {
			ok = s.env.Resume(j)
		} else {
			ok = s.env.StartFresh(j)
		}
		if ok {
			s.queue = sched.Remove(s.queue, j)
		}
	}
}

// OnTick suspends the running job with the longest estimated remaining
// time, the lowest ID among equals, when a much shorter job waits.
func (s *psjf) OnTick() {
	if len(s.queue) == 0 {
		return
	}
	short := s.queue[0] // shortest estimate after pass()'s sort
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
	claim := s.env.Cluster.ListFreeUnclaimed(short.Procs)
	for _, p := range victim.ProcSet {
		if len(claim) == short.Procs {
			break
		}
		claim = append(claim, p)
	}
	s.queue = sched.Remove(s.queue, short)
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
