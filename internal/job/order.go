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
func (o *Order) Sort(jobs []*Job, key func(*Job) (key float64, tie int64)) {
	keyed := o.keyed[:0]
	for _, j := range jobs {
		k, t := key(j)
		keyed = append(keyed, keyedJob{key: k, tie: t, j: j})
	}
	slices.SortFunc(keyed, func(a, b keyedJob) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		if c := cmp.Compare(a.tie, b.tie); c != 0 {
			return c
		}
		return cmp.Compare(a.j.ID, b.j.ID)
	})
	for i, kj := range keyed {
		jobs[i] = kj.j
	}
	o.keyed = keyed
}
