package easy

import (
	"testing"

	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// orderChecked wraps the policy and checks its release list after every
// hook that schedules: each of them ends in schedule, so this checks the
// list after every schedule call.
type orderChecked struct {
	*Sched
	t *testing.T
}

func (c *orderChecked) OnArrival(j *job.Job)    { c.Sched.OnArrival(j); c.check() }
func (c *orderChecked) OnCompletion(j *job.Job) { c.Sched.OnCompletion(j); c.check() }
func (c *orderChecked) OnRepair(p int)          { c.Sched.OnRepair(p); c.check() }
func (c *orderChecked) OnFailure(p int, requeued []*job.Job) {
	c.Sched.OnFailure(p, requeued)
	c.check()
}

// check asserts that the list is in (release time, ID) order and holds
// only running jobs, each still at the projected end it was listed
// under — the invariant that lets EASY fix that end at start.
func (c *orderChecked) check() {
	c.t.Helper()
	rels := &c.running
	for i := 0; i < rels.Len(); i++ {
		j, end := rels.At(i)
		if j.State != job.Running || end != j.ProjectedEnd() {
			c.t.Fatalf("at %d: %v listed at %d, projected end %d", c.env.Now(), j, end, j.ProjectedEnd())
		}
		if i > 0 {
			prev, prevEnd := rels.At(i - 1)
			if prevEnd > end || (prevEnd == end && prev.ID >= j.ID) {
				c.t.Fatalf("at %d: job %d (end %d) listed before job %d (end %d)",
					c.env.Now(), prev.ID, prevEnd, j.ID, end)
			}
		}
	}
}

// TestReleaseOrderUnderFaults runs NS under the processor failures of
// the faults-ns benchmark workload (MTBF 500 h, MTTR 2 h) and checks the
// release list after every schedule call.
func TestReleaseOrderUnderFaults(t *testing.T) {
	tr := workload.Generate(workload.CTC(), workload.GenOptions{Jobs: 1500, Seed: 1})
	c := &orderChecked{Sched: New(), t: t}
	res, err := sched.RunChecked(tr, c, sched.Options{
		MaxSteps: 10_000_000,
		Faults:   fault.Config{MTBF: 500 * 3600, MTTR: 2 * 3600, Seed: 1},
	})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if res.FailKills == 0 {
		t.Fatal("no failure killed a running job; the run does not exercise removal on failure")
	}
	if c.running.Len() != 0 {
		t.Errorf("%d jobs still listed after the run", c.running.Len())
	}
}
