package easy

import (
	"testing"

	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// checked wraps the policy and, after every hook that schedules, checks
// its release list (checkOrder) and that no queued job is left that
// could start (checkMaximal).
type checked struct {
	*Sched
	t     *testing.T
	hooks int
}

func (c *checked) OnArrival(j *job.Job)    { c.Sched.OnArrival(j); c.check("arrival") }
func (c *checked) OnCompletion(j *job.Job) { c.Sched.OnCompletion(j); c.check("completion") }
func (c *checked) OnRepair(p int)          { c.Sched.OnRepair(p); c.check("repair") }
func (c *checked) OnFailure(p int, requeued []*job.Job) {
	c.Sched.OnFailure(p, requeued)
	c.check("failure")
}

func (c *checked) check(hook string) {
	c.t.Helper()
	c.hooks++
	c.checkOrder()
	c.checkMaximal(hook)
}

// checkMaximal asserts that the hook left the queue with no job that can
// start: the head does not fit, and no job behind it passes the backfill
// test against the head's reservation. Arrivals skip the pass unless
// the arriving job itself may start, which is exact only while every
// hook leaves the queue this way. The test is written out here rather
// than shared with the policy, so that a wrong test in the policy
// cannot agree with itself.
func (c *checked) checkMaximal(hook string) {
	c.t.Helper()
	queue := c.env.Idle()
	if len(queue) == 0 {
		return
	}
	now, free, head := c.env.Now(), c.env.Cluster.FreeUnclaimed(), queue[0]
	if head.Procs <= free {
		c.t.Fatalf("at %d after %s: head %v fits in %d free processors", now, hook, head, free)
	}
	shadow, extra := c.running.Shadow(free, head.Procs)
	for _, j := range queue[1:] {
		if j.Procs <= free && (now+j.Estimate <= shadow || j.Procs <= extra) {
			c.t.Fatalf("at %d after %s: %v can backfill (%d free, shadow %d, extra %d)",
				now, hook, j, free, shadow, extra)
		}
	}
}

// checkOrder asserts that the list is in (release time, ID) order and
// holds only running jobs, each still at the projected end it was
// listed under — the invariant that lets EASY fix that end at start.
func (c *checked) checkOrder() {
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
// release list and the queue after every hook that schedules.
func TestReleaseOrderUnderFaults(t *testing.T) {
	tr := workload.Generate(workload.CTC(), workload.GenOptions{Jobs: 1500, Seed: 1})
	c := &checked{Sched: New(), t: t}
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
