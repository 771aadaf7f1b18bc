package core

import (
	"slices"
	"testing"
	"testing/quick"

	"pjs/internal/job"
)

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
	p := Policy{SF: 2}
	victim := runningJob(1, 4, 10000) // xfactor 1
	// Idle job with xfactor exactly 2 may preempt; below 2 may not.
	idle := waitingJob(2, 4, 1000, 1000) // xf(0) = 2
	if !p.CanPreempt(0, idle, victim, false) {
		t.Error("xf ratio exactly SF should allow preemption")
	}
	idleLow := waitingJob(3, 4, 1000, 999) // xf < 2
	if p.CanPreempt(0, idleLow, victim, false) {
		t.Error("xf ratio below SF must block preemption")
	}
}

func TestCanPreemptHalfWidthRule(t *testing.T) {
	p := Policy{SF: 2}
	wideVictim := runningJob(1, 10, 10000)
	narrowIdle := waitingJob(2, 4, 100, 10000) // huge xfactor, but too narrow
	if p.CanPreempt(0, narrowIdle, wideVictim, false) {
		t.Error("half-width rule: 4-proc job must not suspend 10-proc job")
	}
	okIdle := waitingJob(3, 5, 100, 10000) // 10 <= 2*5
	if !p.CanPreempt(0, okIdle, wideVictim, false) {
		t.Error("half-width rule: 5-proc job may suspend 10-proc job")
	}
	// The rule is waived for reentry.
	if !p.CanPreempt(0, narrowIdle, wideVictim, true) {
		t.Error("half-width rule must not apply to reentry")
	}
	// And can be disabled.
	p.DisableHalfWidthRule = true
	if !p.CanPreempt(0, narrowIdle, wideVictim, false) {
		t.Error("DisableHalfWidthRule should waive the rule")
	}
}

func TestCanPreemptTSSLimit(t *testing.T) {
	var limits StaticLimits
	// The victim's estimate is 1000s (Short), 4 procs (Narrow).
	limits[job.Category{Length: job.Short, Width: job.Narrow}.Index()] = 3.0
	p := Policy{SF: 2, Limits: &limits}
	victim := job.New(1, 0, 1000, 1000, 4)
	victim.Dispatch(5000, 0) // waited 5000s: xfactor = 6 > limit 3
	idle := waitingJob(2, 4, 100, 100000)
	if p.CanPreempt(6000, idle, victim, false) {
		t.Error("victim above its category limit must not be preempted")
	}
	// A victim from a category with no limit entry is preemptible.
	victim2 := job.New(3, 0, 90000, 90000, 4) // VeryLong
	victim2.Dispatch(5000, 0)
	if !p.CanPreempt(6000, idle, victim2, false) {
		t.Error("category without a limit should behave like plain SS")
	}
}

func TestCanPreemptMaxSuspensions(t *testing.T) {
	p := Policy{SF: 2, MaxVictimSuspensions: 1}
	victim := job.New(1, 0, 10000, 10000, 4)
	victim.Dispatch(0, 0)
	idle := waitingJob(2, 4, 100, 100000)
	if !p.CanPreempt(0, idle, victim, false) {
		t.Fatal("fresh victim should be preemptible")
	}
	// Suspend and resume the victim once: now it is protected.
	victim.Preempt(10)
	victim.SuspendDone()
	victim.Dispatch(20, 0)
	if p.CanPreempt(30, idle, victim, false) {
		t.Error("victim at the suspension cap must not be preempted")
	}
	// Unlimited (0) keeps it preemptible.
	p.MaxVictimSuspensions = 0
	if !p.CanPreempt(30, idle, victim, false) {
		t.Error("cap 0 must mean unlimited")
	}
}

func TestValidate(t *testing.T) {
	if err := (&Policy{SF: 1}).Validate(); err != nil {
		t.Errorf("SF=1 should validate: %v", err)
	}
	if err := (&Policy{SF: 0.5}).Validate(); err == nil {
		t.Error("SF<1 must fail validation")
	}
}

func TestSelectVictimsNoneNeeded(t *testing.T) {
	p := Policy{SF: 2}
	idle := waitingJob(1, 4, 100, 10000)
	victims, ok := p.SelectVictims(0, idle, nil, 8)
	if !ok || victims != nil {
		t.Error("enough free processors should need no victims")
	}
}

func TestSelectVictimsPicksLowestPriorityThenTrimsLargest(t *testing.T) {
	p := Policy{SF: 2, DisableHalfWidthRule: true}
	// Three running jobs, all preemptible; idle needs 6, 0 free.
	v1 := runningJob(1, 4, 10000)
	v2 := runningJob(2, 3, 10000)
	v3 := runningJob(3, 5, 10000)
	idle := waitingJob(9, 6, 100, 100000)
	victims, ok := p.SelectVictims(0, idle, []*job.Job{v1, v2, v3}, 0)
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

func TestSelectVictimsTrimAvoidsOverSuspension(t *testing.T) {
	p := Policy{SF: 2, DisableHalfWidthRule: true}
	v1 := runningJob(1, 2, 10000)
	v2 := runningJob(2, 2, 10000)
	v3 := runningJob(3, 8, 10000)
	idle := waitingJob(9, 8, 100, 100000)
	victims, ok := p.SelectVictims(0, idle, []*job.Job{v1, v2, v3}, 0)
	if !ok {
		t.Fatal("selection should succeed")
	}
	// Candidates accumulate v1+v2+v3 = 12 ≥ 8; largest-first trim picks
	// just v3 (8 procs) — suspending v1/v2 as well would be waste.
	if len(victims) != 1 || victims[0] != v3 {
		t.Errorf("victims = %v, want just job 3", victims)
	}
}

func TestSelectVictimsRespectsPriority(t *testing.T) {
	p := Policy{SF: 2, DisableHalfWidthRule: true}
	// High-priority running job (recently a long waiter) is not taken.
	lowPrio := runningJob(1, 4, 10000) // xf 1 at t=0
	highPrio := job.New(2, -9000, 1000, 1000, 4)
	highPrio.Dispatch(0, 0)               // waited 9000s before starting: xf 10 at t=0
	idle := waitingJob(9, 8, 1000, 12000) // xf 13: can take xf 1 but not xf 10 (13 < 2*10)
	victims, ok := p.SelectVictims(0, idle, []*job.Job{lowPrio, highPrio}, 0)
	if ok {
		t.Fatalf("victims=%v: 8 procs cannot be covered by the single preemptible job", victims)
	}
	// With 4 free processors the single preemptible 4-proc job suffices.
	victims, ok = p.SelectVictims(0, idle, []*job.Job{lowPrio, highPrio}, 4)
	if !ok || len(victims) != 1 || victims[0] != lowPrio {
		t.Errorf("victims = %v, want [lowPrio]", victims)
	}
}

func TestSelectVictimsIgnoresNonRunning(t *testing.T) {
	p := Policy{SF: 2, DisableHalfWidthRule: true}
	v := runningJob(1, 4, 10000)
	v.Preempt(0) // suspending: not a candidate
	idle := waitingJob(9, 4, 100, 100000)
	if _, ok := p.SelectVictims(0, idle, []*job.Job{v}, 0); ok {
		t.Error("suspending job must not be selected as victim")
	}
}

func TestSelectReentryVictims(t *testing.T) {
	p := Policy{SF: 2}
	holder := runningJob(1, 3, 10000)
	idle := waitingJob(9, 4, 100, 100000)
	idle.ProcSet = []int{0, 1, 2, 3}
	classify := func(proc int) (ReentryBlocked, *job.Job) {
		if proc < 2 {
			return ReentryFree, nil
		}
		return ReentryPreemptible, holder
	}
	victims, ok := p.SelectReentryVictims(0, idle, classify)
	if !ok || len(victims) != 1 || victims[0] != holder {
		t.Errorf("victims=%v ok=%v, want [holder] true", victims, ok)
	}
}

func TestSelectReentryVictimsHardBlock(t *testing.T) {
	p := Policy{SF: 2}
	idle := waitingJob(9, 2, 100, 100000)
	idle.ProcSet = []int{0, 1}
	classify := func(proc int) (ReentryBlocked, *job.Job) {
		if proc == 0 {
			return ReentryFree, nil
		}
		return ReentryHard, nil
	}
	if _, ok := p.SelectReentryVictims(0, idle, classify); ok {
		t.Error("hard-blocked processor must fail reentry selection")
	}
}

func TestSelectReentryVictimsPriorityBlock(t *testing.T) {
	p := Policy{SF: 2}
	holder := job.New(1, 0, 100, 100, 2)
	holder.Dispatch(900, 0)              // xf 10
	idle := waitingJob(9, 2, 1000, 1500) // xf 2.5 < 2*10
	idle.ProcSet = []int{0, 1}
	classify := func(int) (ReentryBlocked, *job.Job) { return ReentryPreemptible, holder }
	if _, ok := p.SelectReentryVictims(1000, idle, classify); ok {
		t.Error("holder above the SF threshold must block reentry")
	}
}

func TestSelectReentryVictimsDedupes(t *testing.T) {
	p := Policy{SF: 2}
	holder := runningJob(1, 4, 10000)
	idle := waitingJob(9, 4, 100, 100000)
	idle.ProcSet = []int{0, 1, 2, 3}
	classify := func(int) (ReentryBlocked, *job.Job) { return ReentryPreemptible, holder }
	victims, ok := p.SelectReentryVictims(0, idle, classify)
	if !ok || len(victims) != 1 {
		t.Errorf("victims=%v, want deduped single holder", victims)
	}
}

// mapReentryVictims is the map-based SelectReentryVictims that the
// scratch-slice version replaced, kept as the reference: it re-ran
// CanPreempt for every processor of a holder and deduplicated by ID.
func mapReentryVictims(p *Policy, now int64, idle *job.Job, classify func(proc int) (ReentryBlocked, *job.Job)) (victims []*job.Job, ok bool) {
	seen := make(map[int]bool)
	for _, proc := range idle.ProcSet {
		status, holder := classify(proc)
		switch status {
		case ReentryFree:
			continue
		case ReentryHard:
			return nil, false
		case ReentryPreemptible:
			if holder == nil || holder.State != job.Running {
				return nil, false
			}
			if !p.CanPreempt(now, idle, holder, true) {
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
// answer and the map-based reference: the same victims in order of first
// appearance, and the same ok. One Policy value serves every case of a
// configuration, so its scratch is reused between calls as in a run.
func TestSelectReentryVictimsTable(t *testing.T) {
	const now = 500
	var limits StaticLimits
	limits[job.Category{Length: job.Short, Width: job.Narrow}.Index()] = 3.0
	plain := &Policy{SF: 2}
	tss := &Policy{SF: 2, Limits: &limits}
	capped := &Policy{SF: 2, MaxVictimSuspensions: 1}

	a := runningJob(1, 4, 1000) // xf 1 at now
	b := runningJob(2, 4, 1000)
	hot := job.New(3, -3000, 1000, 1000, 4) // waited 3000 s: xf 4 > TSS limit 3
	hot.Dispatch(0, 0)
	once := runningJob(4, 4, 1000)
	once.Suspensions = 1 // at the MaxVictimSuspensions cap
	idle := waitingJob(9, 8, 100, 100000)

	F := func() (ReentryBlocked, *job.Job) { return ReentryFree, nil }
	H := func() (ReentryBlocked, *job.Job) { return ReentryHard, nil }
	P := func(h *job.Job) func() (ReentryBlocked, *job.Job) {
		return func() (ReentryBlocked, *job.Job) { return ReentryPreemptible, h }
	}
	cases := []struct {
		name  string
		pol   *Policy
		procs []func() (ReentryBlocked, *job.Job)
		want  []*job.Job
		ok    bool
	}{
		{"holder on non-contiguous processors", plain, []func() (ReentryBlocked, *job.Job){P(a), P(b), P(a), F, P(b)}, []*job.Job{a, b}, true},
		{"holder reappears after a free processor", plain, []func() (ReentryBlocked, *job.Job){P(a), F, P(a)}, []*job.Job{a}, true},
		{"all free", plain, []func() (ReentryBlocked, *job.Job){F, F}, nil, true},
		{"hard block after a preemptible processor", plain, []func() (ReentryBlocked, *job.Job){P(a), H, P(b)}, nil, false},
		{"TSS limit refuses the second holder", tss, []func() (ReentryBlocked, *job.Job){P(a), P(a), P(hot)}, nil, false},
		{"TSS limit admits holders below it", tss, []func() (ReentryBlocked, *job.Job){P(b), P(a), P(b)}, []*job.Job{b, a}, true},
		{"MaxVictimSuspensions refuses a capped holder", capped, []func() (ReentryBlocked, *job.Job){P(a), P(once)}, nil, false},
		{"MaxVictimSuspensions admits uncapped holders", capped, []func() (ReentryBlocked, *job.Job){P(b), P(a)}, []*job.Job{b, a}, true},
	}
	for _, tc := range cases {
		idle.ProcSet = make([]int, len(tc.procs))
		for i := range idle.ProcSet {
			idle.ProcSet[i] = 10 + 3*i
		}
		classify := func(proc int) (ReentryBlocked, *job.Job) { return tc.procs[(proc-10)/3]() }
		got, ok := tc.pol.SelectReentryVictims(now, idle, classify)
		ref, refOK := mapReentryVictims(tc.pol, now, idle, classify)
		if ok != tc.ok || !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %v ok=%v, want %v ok=%v", tc.name, got, ok, tc.want, tc.ok)
		}
		if ok != refOK || !slices.Equal(got, ref) {
			t.Errorf("%s: got %v ok=%v, map-based reference %v ok=%v", tc.name, got, ok, ref, refOK)
		}
	}
}

// Property: SelectVictims only ever returns ok=true with victims whose
// widths plus free processors cover the request, and every victim
// passes CanPreempt.
func TestSelectVictimsProperty(t *testing.T) {
	p := Policy{SF: 1.5}
	f := func(widths []uint8, idleProcs uint8, free uint8) bool {
		idle := waitingJob(99, int(idleProcs%32)+1, 500, 50000)
		var running []*job.Job
		for i, w := range widths {
			running = append(running, runningJob(i+1, int(w%16)+1, 5000))
		}
		victims, ok := p.SelectVictims(0, idle, running, int(free%8))
		if !ok {
			return true
		}
		sum := int(free % 8)
		for _, v := range victims {
			if !p.CanPreempt(0, idle, v, false) {
				return false
			}
			sum += v.Procs
		}
		return sum >= idle.Procs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLimitsFromSlowdowns(t *testing.T) {
	var avg [16]float64
	avg[0] = 4.0
	avg[5] = 0.5 // degenerate input below 1
	limits := LimitsFromSlowdowns(avg)
	if l, ok := limits.Limit(job.Category{Length: job.VeryShort, Width: job.Sequential}); !ok || l != 6.0 {
		t.Errorf("limit[0] = %v,%v want 6,true", l, ok)
	}
	if l, ok := limits.Limit(job.Category{Length: job.Short, Width: job.Narrow}); !ok || l != TSSLimitFactor {
		t.Errorf("degenerate limit = %v,%v want floor %v", l, ok, TSSLimitFactor)
	}
	if _, ok := limits.Limit(job.Category{Length: job.VeryLong, Width: job.VeryWide}); ok {
		t.Error("category without data must have no limit")
	}
}

func TestAdaptiveLimitsWarmup(t *testing.T) {
	a := &AdaptiveLimits{MinSamples: 3}
	c := job.Category{Length: job.VeryShort, Width: job.Wide}
	if _, ok := a.Limit(c); ok {
		t.Error("no limit before warm-up")
	}
	a.Observe(c, 10)
	a.Observe(c, 20)
	if _, ok := a.Limit(c); ok {
		t.Error("no limit with 2 of 3 samples")
	}
	a.Observe(c, 30)
	l, ok := a.Limit(c)
	if !ok || l != TSSLimitFactor*20 {
		t.Errorf("limit = %v,%v want %v,true", l, ok, TSSLimitFactor*20)
	}
}
