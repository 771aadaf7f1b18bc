package sched

import (
	"fmt"
	"sort"

	"pjs/internal/job"
)

// Profile is a piecewise-constant timeline of free processor counts,
// used by the backfilling schedulers to find "holes" in the 2D schedule
// (Section II-A). The last step extends to infinity.
type Profile struct {
	steps []profileStep
}

type profileStep struct {
	t    int64
	free int
}

// NewProfile returns a profile with free processors everywhere from
// time now on.
func NewProfile(now int64, free int) *Profile {
	return &Profile{steps: []profileStep{{t: now, free: free}}}
}

// FarFuture is the pseudo-anchor of a reservation for a job wider than
// the surviving machine: it cannot be profiled (subtracting it would
// underflow), so it parks unreachably far out until a repair restores
// capacity.
const FarFuture = int64(1) << 60

// RunningProfile builds the availability timeline from time now over
// up processors in service, minus each running job until its projected
// end.
func RunningProfile(now int64, up int, running []*job.Job) *Profile {
	p := NewProfile(now, up)
	for _, r := range running {
		if end := r.ProjectedEnd(); end > now {
			p.Sub(now, end, r.Procs)
		}
	}
	return p
}

// ensureBoundary splits the profile so that a step starts exactly at t
// (t must be ≥ the profile start) and returns its index.
func (p *Profile) ensureBoundary(t int64) int {
	i := sort.Search(len(p.steps), func(i int) bool { return p.steps[i].t >= t })
	if i < len(p.steps) && p.steps[i].t == t {
		return i
	}
	// t falls inside step i-1; split it.
	if i == 0 {
		panic(fmt.Sprintf("sched: profile boundary %d before start %d", t, p.steps[0].t))
	}
	p.steps = append(p.steps, profileStep{})
	copy(p.steps[i+1:], p.steps[i:])
	p.steps[i] = profileStep{t: t, free: p.steps[i-1].free}
	return i
}

// Sub removes procs processors from the profile over [start, end).
// It panics if any step in the range would go negative — callers must
// only subtract allocations the profile can hold.
func (p *Profile) Sub(start, end int64, procs int) {
	if end <= start || procs == 0 {
		return
	}
	i := p.ensureBoundary(start)
	j := p.ensureBoundary(end)
	for k := i; k < j; k++ {
		p.steps[k].free -= procs
		if p.steps[k].free < 0 {
			panic(fmt.Sprintf("sched: profile underflow at t=%d (%d free after -%d)",
				p.steps[k].t, p.steps[k].free, procs))
		}
	}
}

// FreeAt returns the free processor count at time t (t ≥ profile start).
func (p *Profile) FreeAt(t int64) int {
	i := sort.Search(len(p.steps), func(i int) bool { return p.steps[i].t > t })
	if i == 0 {
		panic(fmt.Sprintf("sched: FreeAt(%d) before profile start %d", t, p.steps[0].t))
	}
	return p.steps[i-1].free
}

// FindStart returns the earliest time ≥ after at which procs processors
// stay free for dur consecutive seconds — the job's "anchor point".
func (p *Profile) FindStart(after int64, procs int, dur int64) int64 {
	if len(p.steps) == 0 {
		panic("sched: empty profile")
	}
	n := len(p.steps)
	i := 0
	// Position at the step containing `after`.
	for i < n-1 && p.steps[i+1].t <= after {
		i++
	}
	for ; i < n; i++ {
		anchor := p.steps[i].t
		if anchor < after {
			anchor = after
		}
		if p.steps[i].free < procs {
			continue
		}
		// Check the window [anchor, anchor+dur) across later steps.
		ok := true
		for k := i; k < n; k++ {
			stepEnd := int64(-1) // infinity
			if k+1 < n {
				stepEnd = p.steps[k+1].t
			}
			if p.steps[k].free < procs {
				ok = false
				break
			}
			if stepEnd == -1 || stepEnd >= anchor+dur {
				break
			}
		}
		if ok {
			return anchor
		}
	}
	panic("sched: FindStart found no anchor (unreachable: last step is infinite)")
}
