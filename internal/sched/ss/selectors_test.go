package ss

import (
	"slices"
	"testing"

	"pjs/internal/job"
)

// The unit tests of the reference selectors (reference_test.go), with
// which passMaximal compares every commit of the preemption routine.

// runningJob returns a job that started at time 0 with the given width
// and estimate and has been running ever since (xfactor 1).
func runningJob(id int, procs int, est int64) *job.Job {
	j := job.New(id, 0, est, est, procs)
	j.Dispatch(0, 0)
	return j
}

// waitingJob returns a job submitted at 0 that has waited `wait` seconds
// with the given estimate: xfactor = (wait+est)/est at time `wait`.
func waitingJob(id int, procs int, est, wait int64) *job.Job {
	return job.New(id, -wait, est, est, procs) // submit in the past
}

func TestCanPreemptSFThreshold(t *testing.T) {
	p := Config{SF: 2}
	victim := runningJob(1, 4, 10000) // xfactor 1
	// Idle job with xfactor exactly 2 may preempt; below 2 may not.
	idle := waitingJob(2, 4, 1000, 1000) // xf(0) = 2
	if !canPreempt(&p, 0, idle, victim, false) {
		t.Error("xf ratio exactly SF should allow preemption")
	}
	idleLow := waitingJob(3, 4, 1000, 999) // xf < 2
	if canPreempt(&p, 0, idleLow, victim, false) {
		t.Error("xf ratio below SF must block preemption")
	}
}

func TestCanPreemptHalfWidthRule(t *testing.T) {
	p := Config{SF: 2}
	wideVictim := runningJob(1, 10, 10000)
	narrowIdle := waitingJob(2, 4, 100, 10000) // huge xfactor, but too narrow
	if canPreempt(&p, 0, narrowIdle, wideVictim, false) {
		t.Error("half-width rule: 4-proc job must not suspend 10-proc job")
	}
	okIdle := waitingJob(3, 5, 100, 10000) // 10 <= 2*5
	if !canPreempt(&p, 0, okIdle, wideVictim, false) {
		t.Error("half-width rule: 5-proc job may suspend 10-proc job")
	}
	// The rule is waived for reentry.
	if !canPreempt(&p, 0, narrowIdle, wideVictim, true) {
		t.Error("half-width rule must not apply to reentry")
	}
	// And can be disabled.
	p.DisableHalfWidthRule = true
	if !canPreempt(&p, 0, narrowIdle, wideVictim, false) {
		t.Error("DisableHalfWidthRule should waive the rule")
	}
}

func TestSelectVictimsPicksLowestPriorityThenTrimsLargest(t *testing.T) {
	p := Config{SF: 2, DisableHalfWidthRule: true}
	// Three running jobs, all preemptible; idle needs 6, 0 free.
	v1 := runningJob(1, 4, 10000)
	v2 := runningJob(2, 3, 10000)
	v3 := runningJob(3, 5, 10000)
	idle := waitingJob(9, 6, 100, 100000)
	victims, ok := selectVictims(&p, 0, idle, []*job.Job{v1, v2, v3}, 0)
	if !ok {
		t.Fatal("selection should succeed")
	}
	// Candidate accumulation (ascending priority; all equal → by ID)
	// takes v1 (4) + v2 (3) = 7 ≥ 6. Largest-first trim: v1 then v2.
	if len(victims) != 2 || victims[0] != v1 || victims[1] != v2 {
		ids := []int{}
		for _, v := range victims {
			ids = append(ids, v.ID)
		}
		t.Errorf("victims = %v, want [1 2]", ids)
	}
}

func TestSelectVictimsRespectsPriority(t *testing.T) {
	p := Config{SF: 2, DisableHalfWidthRule: true}
	// High-priority running job (recently a long waiter) is not taken.
	lowPrio := runningJob(1, 4, 10000) // xf 1 at t=0
	highPrio := job.New(2, -9000, 1000, 1000, 4)
	highPrio.Dispatch(0, 0)               // waited 9000s before starting: xf 10 at t=0
	idle := waitingJob(9, 8, 1000, 12000) // xf 13: can take xf 1 but not xf 10 (13 < 2*10)
	victims, ok := selectVictims(&p, 0, idle, []*job.Job{lowPrio, highPrio}, 0)
	if ok {
		t.Fatalf("victims=%v: 8 procs cannot be covered by the single preemptible job", victims)
	}
	// With 4 free processors the single preemptible 4-proc job suffices.
	victims, ok = selectVictims(&p, 0, idle, []*job.Job{lowPrio, highPrio}, 4)
	if !ok || len(victims) != 1 || victims[0] != lowPrio {
		t.Errorf("victims = %v, want [lowPrio]", victims)
	}
}

func TestSelectVictimsIgnoresNonRunning(t *testing.T) {
	p := Config{SF: 2, DisableHalfWidthRule: true}
	v := runningJob(1, 4, 10000)
	v.Preempt(0) // suspending: not a candidate
	idle := waitingJob(9, 4, 100, 100000)
	if _, ok := selectVictims(&p, 0, idle, []*job.Job{v}, 0); ok {
		t.Error("suspending job must not be selected as victim")
	}
}

func TestSelectReentryVictims(t *testing.T) {
	p := Config{SF: 2}
	holder := runningJob(1, 3, 10000)
	idle := waitingJob(9, 4, 100, 100000)
	idle.ProcSet = []int{0, 1, 2, 3}
	classify := func(proc int) (reentryBlocked, *job.Job) {
		if proc < 2 {
			return reentryFree, nil
		}
		return reentryPreemptible, holder
	}
	victims, ok := selectReentryVictims(&p, 0, idle, classify)
	if !ok || len(victims) != 1 || victims[0] != holder {
		t.Errorf("victims=%v ok=%v, want [holder] true", victims, ok)
	}
}

func TestSelectReentryVictimsHardBlock(t *testing.T) {
	p := Config{SF: 2}
	idle := waitingJob(9, 2, 100, 100000)
	idle.ProcSet = []int{0, 1}
	classify := func(proc int) (reentryBlocked, *job.Job) {
		if proc == 0 {
			return reentryFree, nil
		}
		return reentryHard, nil
	}
	if _, ok := selectReentryVictims(&p, 0, idle, classify); ok {
		t.Error("hard-blocked processor must fail reentry selection")
	}
}

func TestSelectReentryVictimsPriorityBlock(t *testing.T) {
	p := Config{SF: 2}
	holder := job.New(1, 0, 100, 100, 2)
	holder.Dispatch(900, 0)              // xf 10
	idle := waitingJob(9, 2, 1000, 1500) // xf 2.5 < 2*10
	idle.ProcSet = []int{0, 1}
	classify := func(int) (reentryBlocked, *job.Job) { return reentryPreemptible, holder }
	if _, ok := selectReentryVictims(&p, 1000, idle, classify); ok {
		t.Error("holder above the SF threshold must block reentry")
	}
}

func TestSelectReentryVictimsDedupes(t *testing.T) {
	p := Config{SF: 2}
	holder := runningJob(1, 4, 10000)
	idle := waitingJob(9, 4, 100, 100000)
	idle.ProcSet = []int{0, 1, 2, 3}
	classify := func(int) (reentryBlocked, *job.Job) { return reentryPreemptible, holder }
	victims, ok := selectReentryVictims(&p, 0, idle, classify)
	if !ok || len(victims) != 1 {
		t.Errorf("victims=%v, want deduped single holder", victims)
	}
}

// mapReentryVictims is a second, map-based reentry selection: it
// re-runs canPreempt for every processor of a holder and deduplicates
// by ID.
func mapReentryVictims(p *Config, now int64, idle *job.Job, classify func(proc int) (reentryBlocked, *job.Job)) (victims []*job.Job, ok bool) {
	seen := make(map[int]bool)
	for _, proc := range idle.ProcSet {
		status, holder := classify(proc)
		switch status {
		case reentryFree:
			continue
		case reentryHard:
			return nil, false
		case reentryPreemptible:
			if holder == nil || holder.State != job.Running {
				return nil, false
			}
			if !canPreempt(p, now, idle, holder, true) {
				return nil, false
			}
			if !seen[holder.ID] {
				seen[holder.ID] = true
				victims = append(victims, holder)
			}
		}
	}
	return victims, true
}

// TestSelectReentryVictimsTable pins each case against both its expected
// answer and the map-based selection: the same victims in order of first
// appearance, and the same ok.
func TestSelectReentryVictimsTable(t *testing.T) {
	const now = 500
	var limits StaticLimits
	limits[job.Category{Length: job.Short, Width: job.Narrow}.Index()] = 3.0
	plain := &Config{SF: 2}
	tss := &Config{SF: 2, Limits: &limits}
	capped := &Config{SF: 2, MaxSuspensions: 1}

	a := runningJob(1, 4, 1000) // xf 1 at now
	b := runningJob(2, 4, 1000)
	hot := job.New(3, -3000, 1000, 1000, 4) // waited 3000 s: xf 4 > TSS limit 3
	hot.Dispatch(0, 0)
	once := runningJob(4, 4, 1000)
	once.Suspensions = 1 // at the MaxSuspensions cap
	idle := waitingJob(9, 8, 100, 100000)

	F := func() (reentryBlocked, *job.Job) { return reentryFree, nil }
	H := func() (reentryBlocked, *job.Job) { return reentryHard, nil }
	P := func(h *job.Job) func() (reentryBlocked, *job.Job) {
		return func() (reentryBlocked, *job.Job) { return reentryPreemptible, h }
	}
	cases := []struct {
		name  string
		pol   *Config
		procs []func() (reentryBlocked, *job.Job)
		want  []*job.Job
		ok    bool
	}{
		{"holder on non-contiguous processors", plain, []func() (reentryBlocked, *job.Job){P(a), P(b), P(a), F, P(b)}, []*job.Job{a, b}, true},
		{"holder reappears after a free processor", plain, []func() (reentryBlocked, *job.Job){P(a), F, P(a)}, []*job.Job{a}, true},
		{"all free", plain, []func() (reentryBlocked, *job.Job){F, F}, nil, true},
		{"hard block after a preemptible processor", plain, []func() (reentryBlocked, *job.Job){P(a), H, P(b)}, nil, false},
		{"TSS limit refuses the second holder", tss, []func() (reentryBlocked, *job.Job){P(a), P(a), P(hot)}, nil, false},
		{"TSS limit admits holders below it", tss, []func() (reentryBlocked, *job.Job){P(b), P(a), P(b)}, []*job.Job{b, a}, true},
		{"MaxSuspensions refuses a capped holder", capped, []func() (reentryBlocked, *job.Job){P(a), P(once)}, nil, false},
		{"MaxSuspensions admits uncapped holders", capped, []func() (reentryBlocked, *job.Job){P(b), P(a)}, []*job.Job{b, a}, true},
	}
	for _, tc := range cases {
		idle.ProcSet = make([]int, len(tc.procs))
		for i := range idle.ProcSet {
			idle.ProcSet[i] = 10 + 3*i
		}
		classify := func(proc int) (reentryBlocked, *job.Job) { return tc.procs[(proc-10)/3]() }
		got, ok := selectReentryVictims(tc.pol, now, idle, classify)
		ref, refOK := mapReentryVictims(tc.pol, now, idle, classify)
		if ok != tc.ok || !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %v ok=%v, want %v ok=%v", tc.name, got, ok, tc.want, tc.ok)
		}
		if ok != refOK || !slices.Equal(got, ref) {
			t.Errorf("%s: got %v ok=%v, map-based reference %v ok=%v", tc.name, got, ok, ref, refOK)
		}
	}
}
