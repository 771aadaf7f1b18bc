package ss

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestCrossingTable(t *testing.T) {
	for _, tc := range []struct {
		name      string
		sf, need  float64
		est, wait int64
		want      int64
	}{
		{"fresh victim", 2, 1, 100, 0, 100},
		{"waited part of the way", 2, 1.5, 100, 50, 150},
		{"SF 1.5, one-second estimate", 1.5, 1, 1, 0, 1},
		{"estimate 0 counts as 1", 2, 1, 0, 0, 1},
		{"exactly at the crossing", 2, 1, 100, 100, 0},
		{"past the crossing", 2, 1, 10, 50, -40},
		{"non-integer product rounds up", 1.5, 1.01, 100, 0, 52},
		{"infinite need", 2, math.Inf(1), 100, 0, math.MaxInt64},
		{"beyond float seconds", 2, 1e30, 100, 7, 1<<52 - 7 - 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := Config{SF: tc.sf}
			if got := p.crossing(tc.wait, waitingJob(1, 1, tc.est, 0), tc.need); got != tc.want {
				t.Errorf("Crossing = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestCrossingNeverLate checks the property the quiet-tick horizon
// relies on, over random SF values, estimates from one second to 2^40
// and waits placed on and around exact crossings: with a margin of one
// second, the idle job's xfactor stays below SF·need — compared the way
// canPreempt compares it — at every time before now + d − 1, and it has
// reached SF·need one second after now + d, so d is not early either.
func TestCrossingNeverLate(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 1))
	sfs := []float64{1, 1.5, 2, 5}
	randEst := func() int64 {
		switch rng.IntN(4) {
		case 0:
			return 1 + rng.Int64N(3)
		case 1:
			return 1 + rng.Int64N(100)
		case 2:
			return 1 + rng.Int64N(100_000)
		default:
			return 1<<40 - rng.Int64N(1<<20)
		}
	}
	checked, exact := 0, 0
	for i := 0; i < 20_000; i++ {
		p := Config{SF: sfs[rng.IntN(len(sfs))]}
		if rng.IntN(4) == 0 {
			p.SF = 1 + 9*rng.Float64()
		}
		// need is a real victim's xfactor, as the horizon reads it.
		vEst := randEst()
		if rng.IntN(3) == 0 {
			vEst = randEst() % 1000
		}
		victim := waitingJob(1, 1, vEst, 0)
		vWait := rng.Int64N(3 * max(vEst, 1))
		need := victim.XFactor(vWait)
		threshold := p.SF * need

		idle := waitingJob(2, 1, randEst(), 0)
		d0 := p.crossing(0, idle, need)
		// Place now around the crossing: far before it, just before,
		// on it and after it.
		var now int64
		switch rng.IntN(4) {
		case 0:
			now = rng.Int64N(max(d0, 1))
		case 1:
			now = max(d0-1-rng.Int64N(3), 0)
		case 2:
			now = max(d0, 0)
		default:
			now = max(d0, 0) + rng.Int64N(100)
		}
		d := p.crossing(now, idle, need)
		if d != d0-now {
			t.Fatalf("Crossing moved by %d over %d s of wait", d0-d, now)
		}
		for _, back := range []int64{2, 3, 10, 1000} {
			if at := now + d - back; at >= now && idle.XFactor(at) >= threshold {
				t.Fatalf("SF=%v need=%v est=%d: xfactor %v at now+d−%d ≥ %v, crossing d=%d is late",
					p.SF, need, idle.Estimate, idle.XFactor(at), back, threshold, d)
			}
		}
		if at := now + d + 1; at >= now && idle.XFactor(at) < threshold {
			t.Fatalf("SF=%v need=%v est=%d: xfactor %v at now+d+1 < %v, crossing d=%d is early",
				p.SF, need, idle.Estimate, idle.XFactor(at), threshold, d)
		}
		if at := now + d; at >= now && idle.XFactor(at) >= threshold && (at == 0 || idle.XFactor(at-1) < threshold) {
			exact++
		}
		checked++
	}
	t.Logf("%d crossings checked, %d exact to the second", checked, exact)
	if exact < checked/2 {
		t.Errorf("only %d of %d crossings exact to the second", exact, checked)
	}
}
