package job

import (
	"cmp"
	"slices"
)

// Order sorts jobs by a priority key computed once per job — decorate,
// sort, undecorate — instead of once per comparison. The zero value is
// ready to use; a policy keeps one and reuses its scratch on every pass,
// so sorting allocates nothing once the scratch has grown to the queue's
// size. An Order must not be shared between concurrent sorts.
type Order struct {
	keyed []keyedJob
}

// keyedJob is one decorated element: the key pair and the job it ranks.
type keyedJob struct {
	key float64
	tie int64
	j   *Job
}

// Sort reorders jobs in place by ascending key, then ascending tie, then
// ascending job ID. key is called exactly once per job. A descending
// priority is expressed by returning its negation, which is exact for
// every float; a key without a secondary clause returns tie 0.
//
// Job IDs are unique, so the order is total and the unstable sort yields
// the same permutation as a stable sort on the same comparator would.
//
//lint:allocfree scratch already holds len(jobs) entries
func (o *Order) Sort(jobs []*Job, key func(*Job) (key float64, tie int64)) {
	keyed := slices.Grow(o.keyed[:0], len(jobs))[:len(jobs)]
	for i, j := range jobs {
		k, t := key(j)
		keyed[i] = keyedJob{key: k, tie: t, j: j}
	}
	slices.SortFunc(keyed, compareKeyed)
	for i, kj := range keyed {
		jobs[i] = kj.j
	}
	o.keyed = keyed
}

// compareKeyed orders decorated jobs by key, then tie, then job ID.
//
//lint:allocfree always, three comparisons
func compareKeyed(a, b keyedJob) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	if c := cmp.Compare(a.tie, b.tie); c != 0 {
		return c
	}
	return cmp.Compare(a.j.ID, b.j.ID)
}
