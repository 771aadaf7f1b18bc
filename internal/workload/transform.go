package workload

// HourHistogram returns the fraction of arrivals per hour of the
// (simulated) day — the diurnal pattern that drives transient backlogs.
func (t *Trace) HourHistogram() [24]float64 {
	var counts [24]int
	for _, j := range t.Jobs {
		h := (j.SubmitTime / 3600) % 24
		if h < 0 {
			h += 24
		}
		counts[h]++
	}
	var out [24]float64
	if len(t.Jobs) == 0 {
		return out
	}
	for h, c := range counts {
		out[h] = float64(c) / float64(len(t.Jobs))
	}
	return out
}

// WorkByCategory returns the fraction of total requested work
// (run time × processors) in each Table I category — distinct from the
// job-count distribution because a few very-long very-wide jobs can
// dominate the machine.
func (t *Trace) WorkByCategory() [4][4]float64 {
	var work [4][4]float64
	total := 0.0
	for _, j := range t.Jobs {
		c := j.Category()
		w := float64(j.RunTime) * float64(j.Procs)
		work[c.Length][c.Width] += w
		total += w
	}
	if total == 0 {
		return work
	}
	for l := range work {
		for w := range work[l] {
			work[l][w] /= total
		}
	}
	return work
}
