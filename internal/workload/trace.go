// Package workload provides the job streams that drive the simulator:
// a reader/writer for the Standard Workload Format (SWF) used by
// Feitelson's Parallel Workloads Archive (the source of the paper's CTC,
// SDSC and KTH logs), synthetic trace generators calibrated to the
// paper's published category distributions, and the trace transforms the
// paper applies (load scaling, user-estimate inaccuracy).
package workload

import (
	"fmt"
	"sort"

	"pjs/internal/job"
)

// Trace is an ordered stream of jobs for one machine.
type Trace struct {
	Name  string
	Procs int // machine size
	Jobs  []*job.Job
}

// CloneJobs returns fresh Job values with the same static attributes and
// reset dynamic state. Simulations mutate jobs, so every run must work
// on its own copies. The copies are written in place into one backing
// slab: two allocations per call, the slab and the pointer slice,
// instead of one per job.
func (t *Trace) CloneJobs() []*job.Job {
	out := make([]*job.Job, len(t.Jobs))
	slab := make([]job.Job, len(t.Jobs))
	for i, j := range t.Jobs {
		c := &slab[i]
		c.Init(j.ID, j.SubmitTime, j.RunTime, j.Estimate, j.Procs)
		c.MemPerProc = j.MemPerProc
		out[i] = c
	}
	return out
}

// jobChunk is the most jobs a jobChunks allocation holds.
const jobChunk = 4096

// jobChunks hands out jobs from fixed-size slabs, for a reader that does
// not know how many jobs it will make: one allocation per chunk instead
// of one per job, and the jobs never move. The chunks double from 64
// jobs up to jobChunk, so a short trace does not pay for a whole one.
type jobChunks struct {
	free []job.Job
	size int
}

// next returns a pointer to the next zero job.
func (c *jobChunks) next() *job.Job {
	if len(c.free) == 0 {
		c.size = min(max(2*c.size, 64), jobChunk)
		c.free = make([]job.Job, c.size)
	}
	j := &c.free[0]
	c.free = c.free[1:]
	return j
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	return &Trace{Name: t.Name, Procs: t.Procs, Jobs: t.CloneJobs()}
}

// SortBySubmit orders jobs by submit time (stable, ties keep input
// order) and is idempotent. Already sorted jobs are left as they are
// without sorting: a stable sort of sorted input is the identity.
func (t *Trace) SortBySubmit() {
	if t.submitSorted() {
		return
	}
	sort.SliceStable(t.Jobs, func(i, k int) bool {
		return t.Jobs[i].SubmitTime < t.Jobs[k].SubmitTime
	})
}

// submitSorted reports whether the jobs are in submit-time order.
func (t *Trace) submitSorted() bool {
	for i := 1; i < len(t.Jobs); i++ {
		if t.Jobs[i].SubmitTime < t.Jobs[i-1].SubmitTime {
			return false
		}
	}
	return true
}

// Validate checks that the trace can be simulated: non-empty, jobs
// sorted by submit time, and every job with positive run time and a
// width that fits the machine.
func (t *Trace) Validate() error {
	if t.Procs < 1 {
		return fmt.Errorf("workload: trace %q has machine size %d", t.Name, t.Procs)
	}
	if len(t.Jobs) == 0 {
		return fmt.Errorf("workload: trace %q is empty", t.Name)
	}
	prev := int64(-1)
	for i, j := range t.Jobs {
		if j.SubmitTime < prev {
			return fmt.Errorf("workload: trace %q job %d out of order (submit %d after %d)",
				t.Name, j.ID, j.SubmitTime, prev)
		}
		prev = j.SubmitTime
		if j.RunTime <= 0 {
			return fmt.Errorf("workload: trace %q job %d has run time %d", t.Name, j.ID, j.RunTime)
		}
		if j.Procs < 1 || j.Procs > t.Procs {
			return fmt.Errorf("workload: trace %q job %d requests %d of %d processors",
				t.Name, j.ID, j.Procs, t.Procs)
		}
		if j.Estimate < j.RunTime {
			return fmt.Errorf("workload: trace %q job %d estimate %d < run time %d",
				t.Name, j.ID, j.Estimate, j.RunTime)
		}
		if i > 0 && j.ID == t.Jobs[i-1].ID {
			return fmt.Errorf("workload: trace %q duplicate job ID %d", t.Name, j.ID)
		}
	}
	return nil
}

// ScaleLoad returns a copy of the trace with all arrival times divided
// by factor, the paper's Section VI load-variation transform ("the job
// trace for a load factor of 1.1 is obtained by dividing the arrival
// times of the jobs in the original trace by 1.1"); run times and
// estimates are unchanged.
func (t *Trace) ScaleLoad(factor float64) *Trace {
	if factor <= 0 {
		panic("workload: load factor must be positive")
	}
	out := t.Clone()
	out.Name = fmt.Sprintf("%s@%.2gx", t.Name, factor)
	for _, j := range out.Jobs {
		j.SubmitTime = int64(float64(j.SubmitTime) / factor)
	}
	// Division by a positive factor is monotone, so a sorted trace stays
	// sorted and this returns at once; only an unsorted input re-sorts.
	out.SortBySubmit()
	return out
}

// Span returns the submit-time extent of the trace: the first and last
// arrival.
func (t *Trace) Span() (first, last int64) {
	if len(t.Jobs) == 0 {
		return 0, 0
	}
	return t.Jobs[0].SubmitTime, t.Jobs[len(t.Jobs)-1].SubmitTime
}

// OfferedLoad returns total requested work divided by machine capacity
// over the submission span — the demand the trace places on the machine
// (can exceed 1 beyond saturation).
func (t *Trace) OfferedLoad() float64 {
	first, last := t.Span()
	if last <= first {
		return 0
	}
	var work int64
	for _, j := range t.Jobs {
		work += j.RunTime * int64(j.Procs)
	}
	return float64(work) / float64(int64(t.Procs)*(last-first))
}

// DistributionTable returns the fraction of jobs in each of the 16
// categories of Table I — the quantity reported in the paper's
// Tables II and III.
func (t *Trace) DistributionTable() [4][4]float64 {
	var counts [4][4]int
	for _, j := range t.Jobs {
		c := j.Category()
		counts[c.Length][c.Width]++
	}
	var out [4][4]float64
	n := float64(len(t.Jobs))
	if n == 0 {
		return out
	}
	for l := range counts {
		for w := range counts[l] {
			out[l][w] = float64(counts[l][w]) / n
		}
	}
	return out
}

// DistributionTable4 returns the fraction of jobs in each of the four
// coarse categories of Table VI (Tables VII and VIII).
func (t *Trace) DistributionTable4() [2][2]float64 {
	var counts [2][2]int
	for _, j := range t.Jobs {
		c := j.Category4()
		li, wi := 0, 0
		if c.Long {
			li = 1
		}
		if c.Wide {
			wi = 1
		}
		counts[li][wi]++
	}
	var out [2][2]float64
	n := float64(len(t.Jobs))
	if n == 0 {
		return out
	}
	for l := range counts {
		for w := range counts[l] {
			out[l][w] = float64(counts[l][w]) / n
		}
	}
	return out
}
