package sched

import (
	"cmp"
	"fmt"
	"slices"

	"pjs/internal/job"
)

// Releases holds a backfilling policy's running jobs ordered by
// (projected release time, job ID), the order in which the head of the
// queue expects to collect their processors. Insert and Remove keep the
// order by binary search, so the reservation walk (Shadow) needs no
// sort. A job's release time is fixed when it enters the list: a policy
// whose projection of a listed job can change must remove and re-insert
// it. The zero value is an empty list.
type Releases struct {
	rels []release
}

// release is one listed job with the release time it was inserted
// under and its processor count.
type release struct {
	end   int64
	procs int
	j     *job.Job
}

// search returns the position of (end, id) in the list, or where it
// would be inserted, and whether it is listed.
func (r *Releases) search(end int64, id int) (int, bool) {
	return slices.BinarySearchFunc(r.rels, release{end: end}, func(e, t release) int {
		if c := cmp.Compare(e.end, t.end); c != 0 {
			return c
		}
		return cmp.Compare(e.j.ID, id)
	})
}

// Insert lists running job j as releasing its processors at end.
func (r *Releases) Insert(j *job.Job, end int64) {
	i, found := r.search(end, j.ID)
	if found {
		panic(fmt.Sprintf("sched: %v listed twice for release", j))
	}
	r.rels = slices.Insert(r.rels, i, release{end: end, procs: j.Procs, j: j})
}

// Remove unlists job j, which must have been inserted at end.
func (r *Releases) Remove(j *job.Job, end int64) {
	i, found := r.search(end, j.ID)
	if !found || r.rels[i].j != j {
		panic(fmt.Sprintf("sched: %v is not listed for release at %d", j, end))
	}
	r.rels = slices.Delete(r.rels, i, i+1)
}

// Len returns the number of listed jobs.
func (r *Releases) Len() int { return len(r.rels) }

// At returns the i-th listed job in release order and its release time.
func (r *Releases) At(i int) (*job.Job, int64) { return r.rels[i].j, r.rels[i].end }

// Shadow computes the reservation of a queue head that needs need
// processors when free are free now: the release time at which enough
// processors are projected free (0 when free already suffices), and the
// processors left over beyond need at that time. Releases with equal
// times are taken in job-ID order, so the walk is reproducible.
//
// Under fault injection the head may be wider than the surviving
// machine even after every listed job releases (the run aborts with
// ErrUnfinishable only if the outage is permanent). Shadow then returns
// the last release time and no extra processors, so backfill stays
// conservative until capacity returns.
//
//lint:allocfree always, a walk over the ordered list
func (r *Releases) Shadow(free, need int) (at int64, extra int) {
	for i := range r.rels {
		if free >= need {
			break
		}
		free += r.rels[i].procs
		at = r.rels[i].end
	}
	if free < need {
		return at, 0
	}
	return at, free - need
}
