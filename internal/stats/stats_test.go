package stats

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAccBasics(t *testing.T) {
	var a Acc
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d, want 8", a.N())
	}
	if !almost(a.Mean(), 5) {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	if !almost(a.Max(), 9) {
		t.Errorf("Max = %v, want 9", a.Max())
	}
}

func TestAccEmpty(t *testing.T) {
	var a Acc
	if a.Mean() != 0 || a.Max() != 0 || a.N() != 0 {
		t.Error("zero-value Acc should report zeros")
	}
}

// The maximum is tracked from the first sample, so an all-negative
// sample does not report the zero value's 0.
func TestMeanMax(t *testing.T) {
	var a Acc
	for _, x := range []float64{-3, -7, -2} {
		a.Add(x)
	}
	if !almost(a.Mean(), -4) || !almost(a.Max(), -2) {
		t.Errorf("Mean,Max = %v,%v want -4,-2", a.Mean(), a.Max())
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if !almost(Percentile(xs, 0), 15) {
		t.Errorf("P0 = %v", Percentile(xs, 0))
	}
	if !almost(Percentile(xs, 100), 50) {
		t.Errorf("P100 = %v", Percentile(xs, 100))
	}
	if !almost(Percentile(xs, 50), 35) {
		t.Errorf("P50 = %v", Percentile(xs, 50))
	}
	if !almost(Percentile(xs, 25), 20) {
		t.Errorf("P25 = %v", Percentile(xs, 25))
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileClampsP(t *testing.T) {
	xs := []float64{1, 2}
	if !almost(Percentile(xs, -5), 1) || !almost(Percentile(xs, 150), 2) {
		t.Error("out-of-range p should clamp")
	}
}

func TestMedianOddEven(t *testing.T) {
	if !almost(Percentile([]float64{1, 3, 2}, 50), 2) {
		t.Error("odd median")
	}
	if !almost(Percentile([]float64{1, 2, 3, 4}, 50), 2.5) {
		t.Error("even median")
	}
}

// Property: percentile of a sorted sample is monotone in p.
func TestPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		v := Percentile(xs, p)
		if v < prev-1e-12 {
			t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

// TestSelectMatchesSort holds Select and SelectPercentile to a sort, bit
// for bit, on random, duplicate-heavy, sorted and reversed samples of
// many lengths, also when the partition budget runs out at once or
// after one pass.
func TestSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := map[string]func(i, n int) float64{
		"random":   func(int, int) float64 { return rng.Float64() * 100 },
		"few":      func(int, int) float64 { return float64(rng.Intn(3)) },
		"equal":    func(int, int) float64 { return 1 },
		"sorted":   func(i, _ int) float64 { return float64(i) },
		"reversed": func(i, n int) float64 { return float64(n - i) },
	}
	for _, name := range []string{"random", "few", "equal", "sorted", "reversed"} {
		for _, n := range []int{1, 2, 3, 12, 13, 14, 50, 257, 5000} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = shapes[name](i, n)
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, k := range []int{0, n / 2, n * 95 / 100, n - 1} {
				for _, budget := range []int{0, 1, 2 * bits.Len(uint(n))} {
					ys := append([]float64(nil), xs...)
					if got := selectBudget(ys, k, budget); got != sorted[k] {
						t.Fatalf("%s n=%d budget=%d: select(%d) = %v, want %v", name, n, budget, k, got, sorted[k])
					}
					for i, y := range ys {
						if i < k && y > ys[k] || i > k && y < ys[k] {
							t.Fatalf("%s n=%d budget=%d k=%d: xs[%d] = %v on the wrong side of %v", name, n, budget, k, i, y, ys[k])
						}
					}
				}
			}
			for _, p := range []float64{0, 50, 95, 99.9, 100} {
				ys := append([]float64(nil), xs...)
				got, want := SelectPercentile(ys, p), SortedPercentile(sorted, p)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d: SelectPercentile(%v) = %v, sort gives %v", name, n, p, got, want)
				}
			}
		}
	}
	if SelectPercentile(nil, 50) != 0 {
		t.Error("SelectPercentile of no samples is not 0")
	}
}
