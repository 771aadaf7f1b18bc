package sched

import (
	"fmt"
	"testing"

	"pjs/internal/job"
)

// queueIDs returns the IDs of q's jobs, and fails t unless q's widths
// are its jobs' widths.
func queueIDs(t *testing.T, q *waitQueue) []int {
	t.Helper()
	if len(q.widths) != len(q.jobs) {
		t.Fatalf("%d widths for %d jobs", len(q.widths), len(q.jobs))
	}
	ids := make([]int, len(q.jobs))
	for i, j := range q.jobs {
		if int(q.widths[i]) != j.Procs {
			t.Fatalf("width %d at index %d, job %d is %d wide", q.widths[i], i, j.ID, j.Procs)
		}
		ids[i] = j.ID
	}
	return ids
}

// TestInsertBySubmit: the driver's wait queue puts a job before the
// first member that comes after it in (submit, ID) order, and keeps
// the widths in step.
func TestInsertBySubmit(t *testing.T) {
	j := func(id int, submit int64) *job.Job { return job.New(id, submit, 1, 1, id) }
	cases := []struct {
		name  string
		queue []*job.Job
		add   *job.Job
		want  []int
	}{
		{"empty", nil, j(1, 0), []int{1}},
		{"tail", []*job.Job{j(1, 0), j(2, 5)}, j(3, 9), []int{1, 2, 3}},
		{"head", []*job.Job{j(1, 5), j(2, 9)}, j(3, 0), []int{3, 1, 2}},
		{"submit before ID", []*job.Job{j(1, 0), j(2, 5)}, j(9, 3), []int{1, 9, 2}},
		{"ID breaks submit ties", []*job.Job{j(1, 5), j(4, 5)}, j(3, 5), []int{1, 3, 4}},
		{"lower ID at an equal tail", []*job.Job{j(5, 0), j(7, 0)}, j(2, 0), []int{2, 5, 7}},
	}
	for _, c := range cases {
		var q waitQueue
		for _, m := range c.queue {
			q.insert(m)
		}
		q.insert(c.add)
		if got := queueIDs(t, &q); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: queue %v, want %v", c.name, got, c.want)
		}
		if i := q.index(c.add); i < 0 || q.jobs[i] != c.add {
			t.Errorf("%s: index of the inserted job is %d", c.name, i)
		}
	}
}

// TestRemove: removing a member keeps the order of the rest and the
// widths in step; removing a job that is not a member panics.
func TestRemove(t *testing.T) {
	a := job.New(1, 0, 1, 1, 1)
	b := job.New(2, 0, 1, 1, 2)
	c := job.New(3, 0, 1, 1, 3)
	var q waitQueue
	for _, m := range []*job.Job{a, b, c} {
		q.insert(m)
	}
	q.remove(b)
	if got := queueIDs(t, &q); fmt.Sprint(got) != "[1 3]" {
		t.Errorf("after removing job 2 the queue is %v, want [1 3]", got)
	}
	if q.index(b) != -1 {
		t.Error("a removed job is still found")
	}
	defer func() {
		if recover() == nil {
			t.Error("removing a job that is not idle did not panic")
		}
	}()
	q.remove(b)
}

// TestQueueOpsAllocateNothing pins that once the queue has grown, an
// insert at the tail or in the middle and the removal that undoes it
// allocate nothing: removals delete in place, so the backing arrays keep
// their capacity for the next arrival.
func TestQueueOpsAllocateNothing(t *testing.T) {
	var q waitQueue
	for id := 1; id <= 64; id++ {
		q.insert(job.New(2*id, int64(id), 1, 1, id))
	}
	tail := job.New(1000, 1000, 1, 1, 3)
	mid := job.New(33, 16, 1, 1, 5) // between jobs 32 and 34
	if got := testing.AllocsPerRun(100, func() {
		q.insert(tail)
		q.insert(mid)
		q.remove(mid)
		q.remove(tail)
	}); got != 0 {
		t.Errorf("insert and remove allocated %v times, want 0", got)
	}
	if len(q.jobs) != 64 {
		t.Errorf("%d jobs left, want 64", len(q.jobs))
	}
}
