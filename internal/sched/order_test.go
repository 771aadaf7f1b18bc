package sched_test

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"pjs/internal/job"
	"pjs/internal/sched"
)

// The reference comparators are the sort.SliceStable forms that the
// decorated job.Order sort replaced, recomputing the key in every
// comparison. They live only here, as the oracle for the differential
// test below.

// refSS is the SS serving order: descending xfactor, then earlier
// submission, then lower ID.
func refSS(jobs []*job.Job, now int64) {
	sort.SliceStable(jobs, func(i, k int) bool {
		xi, xk := jobs[i].XFactor(now), jobs[k].XFactor(now)
		if xi != xk {
			return xi > xk
		}
		if jobs[i].SubmitTime != jobs[k].SubmitTime {
			return jobs[i].SubmitTime < jobs[k].SubmitTime
		}
		return jobs[i].ID < jobs[k].ID
	})
}

// refIS is the Immediate Service order by instantaneous xfactor, then
// lower ID: descending for the idle queue, ascending for victims.
func refIS(jobs []*job.Job, now int64, desc bool) {
	sort.SliceStable(jobs, func(i, k int) bool {
		xi, xk := jobs[i].InstantaneousXFactor(now), jobs[k].InstantaneousXFactor(now)
		if xi != xk {
			return (xi > xk) == desc
		}
		return jobs[i].ID < jobs[k].ID
	})
}

// tieJobs returns n jobs with unique shuffled IDs whose estimates,
// submit times, accumulated run times and states come from tiny value
// sets, so that equal xfactors and equal submit times are common.
func tieJobs(r *rand.Rand, n int) []*job.Job {
	ids := r.Perm(4 * n)
	out := make([]*job.Job, n)
	for i := range out {
		est := []int64{1, 10, 60, 120}[r.IntN(4)]
		j := job.New(ids[i]+1, []int64{0, 30, 60}[r.IntN(3)], est, est, 1+r.IntN(4))
		j.Ran = min([]int64{0, 0, 10, 60}[r.IntN(4)], j.RunTime)
		switch r.IntN(3) {
		case 1:
			j.State = job.Suspended
		case 2:
			j.State = job.Running
			j.LastDispatch = []int64{100, 200}[r.IntN(2)]
		}
		out[i] = j
	}
	return out
}

// TestOrderMatchesStableReference is the differential test of the
// decorated sort: on job sets dense in key ties, every call-site shape
// (SS, IS queue and IS victims) must yield exactly the
// permutation of the stable-sort comparator it replaced. One Order is
// reused throughout, as the policies reuse theirs.
func TestOrderMatchesStableReference(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	var ord job.Order
	shapes := []struct {
		name string
		ref  func([]*job.Job, int64)
		got  func([]*job.Job, int64)
	}{
		{"ss", refSS, func(js []*job.Job, now int64) { sched.OrderByXFactor(&ord, js, now) }},
		{"is-queue", func(js []*job.Job, now int64) { refIS(js, now, true) }, func(js []*job.Job, now int64) {
			ord.Sort(js, func(j *job.Job) (float64, int64) { return -j.InstantaneousXFactor(now), 0 })
		}},
		{"is-victims", func(js []*job.Job, now int64) { refIS(js, now, false) }, func(js []*job.Job, now int64) {
			ord.Sort(js, func(j *job.Job) (float64, int64) { return j.InstantaneousXFactor(now), 0 })
		}},
	}
	ties := 0
	for iter := 0; iter < 500; iter++ {
		jobs := tieJobs(r, r.IntN(60))
		now := []int64{300, 600}[r.IntN(2)]
		for _, sh := range shapes {
			want := slices.Clone(jobs)
			sh.ref(want, now)
			got := slices.Clone(jobs)
			sh.got(got, now)
			if !slices.Equal(got, want) {
				t.Fatalf("iter %d %s: order differs from the stable reference\ngot  %v\nwant %v", iter, sh.name, ids(got), ids(want))
			}
		}
		sorted := slices.Clone(jobs)
		refSS(sorted, now)
		for i := 1; i < len(sorted); i++ {
			a, b := sorted[i-1], sorted[i]
			if a.XFactor(now) == b.XFactor(now) && a.SubmitTime == b.SubmitTime {
				ties++
			}
		}
	}
	if ties < 1000 {
		t.Fatalf("only %d full key ties across all sets; the generator no longer exercises the ID tie-break", ties)
	}
}

func ids(jobs []*job.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

// TestOrderSortZeroAllocs is the runtime half of Order.Sort's
// //lint:allocfree contract: once its scratch holds the job set, a
// reused Order sorts without allocating.
func TestOrderSortZeroAllocs(t *testing.T) {
	jobs := tieJobs(rand.New(rand.NewPCG(3, 4)), 60)
	var ord job.Order
	key := func(j *job.Job) (float64, int64) { return j.XFactor(600), j.SubmitTime }
	ord.Sort(jobs, key)
	if got := testing.AllocsPerRun(50, func() { ord.Sort(jobs, key) }); got != 0 {
		t.Errorf("Order.Sort with grown scratch: %v allocations, want 0", got)
	}
}
