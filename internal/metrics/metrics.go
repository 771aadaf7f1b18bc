// Package metrics computes the paper's evaluation quantities from
// completed jobs: turnaround time, bounded slowdown (Eq. 1), per-category
// averages and worst cases over the 16-way (Table I) and 4-way
// (Table VI) classifications, the well/badly-estimated split of
// Section V, and system utilization.
package metrics

import (
	"pjs/internal/job"
	"pjs/internal/sched"
	"pjs/internal/stats"
)

// BoundedSlowdown returns the job's bounded slowdown, Eq. 1 (see
// job.Job.BoundedSlowdown).
func BoundedSlowdown(j *job.Job) float64 { return j.BoundedSlowdown() }

// Filter selects the estimate-quality subset of Section V.
type Filter int

const (
	// All keeps every job.
	All Filter = iota
	// WellEstimated keeps jobs with estimate ≤ 2× run time.
	WellEstimated
	// BadlyEstimated keeps jobs with estimate > 2× run time.
	BadlyEstimated
)

// String names the filter.
func (f Filter) String() string {
	switch f {
	case All:
		return "all"
	case WellEstimated:
		return "well-estimated"
	case BadlyEstimated:
		return "badly-estimated"
	}
	return "all"
}

func (f Filter) keep(j *job.Job) bool {
	switch f {
	case All:
		return true
	case WellEstimated:
		return j.WellEstimated()
	case BadlyEstimated:
		return !j.WellEstimated()
	}
	return true
}

// CatStats aggregates one job category (or the whole trace). Beyond the
// paper's mean and worst case, the median and 95th percentile expose the
// *variance* that the TSS tuning of Section IV-E exists to control.
type CatStats struct {
	Count           int
	MeanSlowdown    float64
	MedianSlowdown  float64
	P95Slowdown     float64
	WorstSlowdown   float64
	MeanTurnaround  float64
	WorstTurnaround float64
	MeanWait        float64
	Suspensions     int
	Kills           int
}

type catAcc struct {
	sd, tat, wait stats.Acc
	sdSamples     []float64
	susp, kills   int
}

func (a *catAcc) add(j *job.Job) {
	sd := BoundedSlowdown(j)
	a.sd.Add(sd)
	a.sdSamples = append(a.sdSamples, sd)
	tat := float64(j.Turnaround())
	a.tat.Add(tat)
	a.wait.Add(tat - float64(j.RunTime))
	a.susp += j.Suspensions
	a.kills += j.Kills
}

// carve gives the accumulator room for exactly n slowdown samples at the
// front of buf and returns the rest of buf.
func (a *catAcc) carve(buf []float64, n int) []float64 {
	a.sdSamples = buf[:0:n]
	return buf[n:]
}

// stats selects the order statistics of both percentiles from the
// slowdown samples, which it reorders in place; it sorts nothing.
func (a *catAcc) stats() CatStats {
	return CatStats{
		Count:           a.sd.N(),
		MeanSlowdown:    a.sd.Mean(),
		MedianSlowdown:  stats.SelectPercentile(a.sdSamples, 50),
		P95Slowdown:     stats.SelectPercentile(a.sdSamples, 95),
		WorstSlowdown:   a.sd.Max(),
		MeanTurnaround:  a.tat.Mean(),
		WorstTurnaround: a.tat.Max(),
		MeanWait:        a.wait.Mean(),
		Suspensions:     a.susp,
		Kills:           a.kills,
	}
}

// Summary is the full metric set of one simulation run.
type Summary struct {
	// ByCategory holds the 16 Table I cells, indexed by
	// job.Category.Index().
	ByCategory [16]CatStats
	// ByCategory4 holds the four Table VI cells (SN, SW, LN, LW).
	ByCategory4 [4]CatStats
	// Overall aggregates every (filtered) job.
	Overall CatStats
	// Utilization is the machine utilization of the run (unfiltered).
	Utilization float64
	// Makespan is the simulated span in seconds (unfiltered).
	Makespan int64
}

// Cat returns the stats cell for a 16-way category.
func (s *Summary) Cat(c job.Category) CatStats { return s.ByCategory[c.Index()] }

// Cat4 returns the stats cell for a 4-way category.
func (s *Summary) Cat4(c job.Category4) CatStats { return s.ByCategory4[c.Index()] }

// Summarize aggregates finished jobs (categorized by actual run time, as
// in the paper) under the given estimate-quality filter. utilization and
// makespan are recorded as given.
func Summarize(jobs []*job.Job, utilization float64, makespan int64, f Filter) *Summary {
	var by [16]catAcc
	var by4 [4]catAcc
	var all catAcc
	// Count each cell's kept jobs first, so that every cell's slowdown
	// samples fit, exactly, in one backing array shared by all cells.
	var n16 [16]int
	var n4 [4]int
	kept := 0
	for _, j := range jobs {
		if f.keep(j) {
			n16[j.Category().Index()]++
			n4[j.Category4().Index()]++
			kept++
		}
	}
	samples := make([]float64, 3*kept)
	for i := range by {
		samples = by[i].carve(samples, n16[i])
	}
	for i := range by4 {
		samples = by4[i].carve(samples, n4[i])
	}
	all.carve(samples, kept)
	for _, j := range jobs {
		if !f.keep(j) {
			continue
		}
		by[j.Category().Index()].add(j)
		by4[j.Category4().Index()].add(j)
		all.add(j)
	}
	s := &Summary{Utilization: utilization, Makespan: makespan}
	for i := range by {
		s.ByCategory[i] = by[i].stats()
	}
	for i := range by4 {
		s.ByCategory4[i] = by4[i].stats()
	}
	s.Overall = all.stats()
	return s
}

// FromResult summarizes a simulation result.
func FromResult(r *sched.Result, f Filter) *Summary {
	return Summarize(r.Jobs, r.Utilization, r.Makespan(), f)
}

// SlowdownTable returns the 16 per-category mean slowdowns in category
// index order — the shape of the paper's Tables IV/V and the input to
// ss.LimitsFromSlowdowns.
func (s *Summary) SlowdownTable() [16]float64 {
	var t [16]float64
	for i, c := range s.ByCategory {
		t[i] = c.MeanSlowdown
	}
	return t
}
