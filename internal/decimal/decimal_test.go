package decimal

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

func checkLen(t *testing.T, v int64) {
	t.Helper()
	if got, want := Len(v), len(strconv.FormatInt(v, 10)); got != want {
		t.Fatalf("Len(%d) = %d, want %d", v, got, want)
	}
}

func checkULen(t *testing.T, v uint64) {
	t.Helper()
	if got, want := ULen(v), len(strconv.FormatUint(v, 10)); got != want {
		t.Fatalf("ULen(%d) = %d, want %d", v, got, want)
	}
}

// TestLenMatchesStrconv covers every power of ten and its neighbours,
// both extremes of each width, and random values of every bit length.
func TestLenMatchesStrconv(t *testing.T) {
	for _, p := range pow10 {
		for _, v := range []uint64{p - 1, p, p + 1} {
			checkULen(t, v)
			if v <= math.MaxInt64 {
				checkLen(t, int64(v))
				checkLen(t, -int64(v))
			}
		}
	}
	for _, v := range []uint64{0, 1, math.MaxUint64, math.MaxInt64, 1 << 63} {
		checkULen(t, v)
	}
	for _, v := range []int64{0, -1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1} {
		checkLen(t, v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := range 10_000 {
		v := rng.Uint64() >> (i % 64)
		checkULen(t, v)
		checkLen(t, int64(v))
	}
}
