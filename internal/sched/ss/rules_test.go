package ss

import (
	"math"
	"testing"
	"testing/quick"

	"pjs/internal/job"
)

func TestCanPreemptTSSLimit(t *testing.T) {
	var limits StaticLimits
	// The victim's estimate is 1000s (Short), 4 procs (Narrow).
	limits[job.Category{Length: job.Short, Width: job.Narrow}.Index()] = 3.0
	p := Config{SF: 2, Limits: &limits}
	victim := job.New(1, 0, 1000, 1000, 4)
	victim.Dispatch(5000, 0) // waited 5000s: xfactor = 6 > limit 3
	if p.suspendable(victim, victim.XFactor(6000)) {
		t.Error("victim above its category limit must not be preempted")
	}
	// A victim from a category with no limit entry is preemptible.
	victim2 := job.New(3, 0, 90000, 90000, 4) // VeryLong
	victim2.Dispatch(5000, 0)
	if !p.suspendable(victim2, victim2.XFactor(6000)) {
		t.Error("category without a limit should behave like plain SS")
	}
}

func TestCanPreemptMaxSuspensions(t *testing.T) {
	p := Config{SF: 2, MaxSuspensions: 1}
	victim := job.New(1, 0, 10000, 10000, 4)
	victim.Dispatch(0, 0)
	if !p.suspendable(victim, victim.XFactor(0)) {
		t.Fatal("fresh victim should be preemptible")
	}
	// Suspend and resume the victim once: now it is protected.
	victim.Preempt(10)
	victim.SuspendDone()
	victim.Dispatch(20, 0)
	if p.suspendable(victim, victim.XFactor(30)) {
		t.Error("victim at the suspension cap must not be preempted")
	}
	// Unlimited (0) keeps it preemptible.
	p.MaxSuspensions = 0
	if !p.suspendable(victim, victim.XFactor(30)) {
		t.Error("cap 0 must mean unlimited")
	}
}

func TestValidate(t *testing.T) {
	if err := (&Config{SF: 1}).validate(); err != nil {
		t.Errorf("SF=1 should validate: %v", err)
	}
	if err := (&Config{SF: 0.5}).validate(); err == nil {
		t.Error("SF<1 must fail validation")
	}
}

func TestSelectVictimsNoneNeeded(t *testing.T) {
	if victims := trimLargestFirst(nil, 4, 8); len(victims) != 0 {
		t.Error("enough free processors should need no victims")
	}
	v := runningJob(1, 4, 10000)
	if victims := trimLargestFirst([]*job.Job{v}, 4, 4); len(victims) != 0 {
		t.Errorf("victims = %v, want none: the free processors cover the request", victims)
	}
}

func TestSelectVictimsTrimAvoidsOverSuspension(t *testing.T) {
	v1 := runningJob(1, 2, 10000)
	v2 := runningJob(2, 2, 10000)
	v3 := runningJob(3, 8, 10000)
	// The candidates v1+v2+v3 = 12 cover 8; the largest-first trim picks
	// just v3 (8 procs) — suspending v1/v2 as well would be waste.
	victims := trimLargestFirst([]*job.Job{v1, v2, v3}, 8, 0)
	if len(victims) != 1 || victims[0] != v3 {
		t.Errorf("victims = %v, want just job 3", victims)
	}
	// Equal widths go by ID; with 1 free, both 2-processor jobs are needed.
	victims = trimLargestFirst([]*job.Job{v2, v1}, 5, 1)
	if len(victims) != 2 || victims[0] != v1 || victims[1] != v2 {
		t.Errorf("victims = %v, want jobs 1 and 2", victims)
	}
}

// Property: SelectVictims returns a prefix of the candidates in
// descending width that, with the free processors, covers the request
// when all of them do, and that would not cover it without its last
// victim; when they do not, it returns every candidate.
func TestSelectVictimsProperty(t *testing.T) {
	f := func(widths []uint8, w uint8, free uint8) bool {
		want, fr := int(w%32)+1, int(free%8)
		var chosen []*job.Job
		total := fr
		for i, x := range widths {
			chosen = append(chosen, runningJob(i+1, int(x%16)+1, 5000))
			total += int(x%16) + 1
		}
		victims := trimLargestFirst(chosen, want, fr)
		sum, last := fr, 1<<30
		for _, v := range victims {
			if v.Procs > last {
				return false // not largest first
			}
			sum, last = sum+v.Procs, v.Procs
		}
		if total < want {
			return len(victims) == len(chosen)
		}
		return sum >= want && (len(victims) == 0 || sum-victims[len(victims)-1].Procs < want)
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
	a := &AdaptiveLimits{}
	c := job.Category{Length: job.VeryShort, Width: job.Wide}
	if _, ok := a.Limit(c); ok {
		t.Error("no limit before warm-up")
	}
	// Samples 2, 4, ..., 20: the first nine give no limit, the tenth a
	// limit of 1.5 × their mean of 11.
	for i := 1; i <= AdaptiveMinSamples; i++ {
		a.Observe(c, float64(2*i))
		l, ok := a.Limit(c)
		if i < AdaptiveMinSamples {
			if ok {
				t.Errorf("limit %v with %d of %d samples", l, i, AdaptiveMinSamples)
			}
			continue
		}
		if want := TSSLimitFactor * 11; !ok || math.Abs(l-want) > 1e-9 {
			t.Errorf("limit = %v,%v want %v,true", l, ok, want)
		}
	}
}
