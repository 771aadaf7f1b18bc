package fault

import (
	"math"
	"math/rand"
	"testing"
)

// streamDraws crosses both the regTap hand-over (273) and the first
// wrap of the 607-word register, twice over.
const streamDraws = 1300

// streamSeeds covers rand.NewSource's seed reduction: zero (replaced by
// a fixed seed), negatives, multiples of 2^31−1 (which reduce to zero),
// values either side of them, and the extremes of int64.
func streamSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, 42, -42, lcgMod, -lcgMod, 2 * lcgMod, -3 * lcgMod,
		lcgMod - 1, lcgMod + 1, lcgSeed, -lcgSeed, math.MaxInt64, math.MinInt64,
		math.MaxInt64 - math.MaxInt64%lcgMod}
	for lane := int64(0); lane < 4; lane++ {
		seeds = append(seeds, mix(1, lane), mix(-7, lane), mix(lcgMod, lane))
	}
	return seeds
}

// checkStream compares lazySource(seed) with rand.NewSource(seed) over
// draws outputs of Uint64, Int63 and, through rand.Rand, ExpFloat64.
func checkStream(t *testing.T, seed int64, draws int) {
	t.Helper()
	got := newLazySource(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for n := 0; n < draws; n++ {
		if n%2 == 0 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, n, g, w)
			}
		} else if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 draw %d = %#x, math/rand %#x", seed, n, g, w)
		}
	}
	gr, wr := rand.New(newLazySource(seed)), rand.New(rand.NewSource(seed))
	for n := 0; n < draws; n++ {
		if g, w := gr.ExpFloat64(), wr.ExpFloat64(); g != w {
			t.Fatalf("seed %d: ExpFloat64 %d = %v, math/rand %v", seed, n, g, w)
		}
	}
}

func TestFaultStreamMatchesMathRand(t *testing.T) {
	for _, seed := range streamSeeds() {
		checkStream(t, seed, streamDraws)
	}
}

// Seed restarts a source that has already handed over.
func TestFaultStreamReseed(t *testing.T) {
	s := newLazySource(3)
	for n := 0; n < regLen; n++ {
		s.Uint64()
	}
	s.Seed(5)
	want := rand.NewSource(5).(rand.Source64)
	for n := 0; n < regLen; n++ {
		if g, w := s.Uint64(), want.Uint64(); g != w {
			t.Fatalf("after reseed: draw %d = %#x, math/rand %#x", n, g, w)
		}
	}
}

func FuzzFaultStream(f *testing.F) {
	for _, seed := range streamSeeds() {
		f.Add(seed, uint16(streamDraws))
	}
	f.Add(int64(9), uint16(regTap))
	f.Add(int64(9), uint16(regTap+1))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkStream(t, seed, int(draws)%(2*streamDraws))
	})
}

// Building an injector and drawing each processor's first failure — what
// a run does at t = 0 — costs two allocations per processor (the lazy
// source and its rand.Rand) plus the growth of the stream table; seeding
// a math/rand source per processor cost a 4.9 KB register each.
func TestInjectorSetupAllocs(t *testing.T) {
	const procs = 430
	cfg := Config{MTBF: 1800000, MTTR: 7200, Seed: 1}
	allocs := testing.AllocsPerRun(20, func() {
		in := NewInjector(cfg)
		for p := 0; p < procs; p++ {
			in.FailDelay(p)
		}
	})
	if perProc := allocs / procs; perProc > 2.1 {
		t.Errorf("%.0f allocations for %d processors (%.2f each), want at most 2.1 each", allocs, procs, perProc)
	}
}

// The register is built only when a stream reaches draw regTap.
func TestFaultStreamDefersRegister(t *testing.T) {
	s := newLazySource(11)
	for n := 0; n < regTap; n++ {
		s.Uint64()
	}
	if s.src != nil {
		t.Fatalf("register built within the first %d draws", regTap)
	}
	s.Uint64()
	if s.src == nil {
		t.Fatalf("no register after draw %d", regTap)
	}
}
