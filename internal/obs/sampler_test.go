package obs

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// fmtCSV is the reference rendering WriteCSV must reproduce byte for
// byte: the header and one fmt.Fprintf of "%d,%d,%.6f,%d,%d,%d,%.6f"
// per row.
func fmtCSV(s *Sampler) string {
	var b strings.Builder
	b.WriteString("time,busy,utilization,queued,running,suspended,max_queued_xfactor\n")
	for _, smp := range s.Samples {
		u := 0.0
		if s.Procs > 0 {
			u = float64(smp.Busy) / float64(s.Procs)
		}
		fmt.Fprintf(&b, "%d,%d,%.6f,%d,%d,%d,%.6f\n",
			smp.Time, smp.Busy, u, smp.Queued, smp.Running, smp.Suspended,
			smp.MaxQueuedXFactor)
	}
	return b.String()
}

func requireFmtCSV(t *testing.T, s *Sampler) {
	t.Helper()
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if want := fmtCSV(s); b.String() != want {
		got, ref := strings.Split(b.String(), "\n"), strings.Split(want, "\n")
		for i := range min(len(got), len(ref)) {
			if got[i] != ref[i] {
				t.Fatalf("line %d = %q, fmt reference %q", i, got[i], ref[i])
			}
		}
		t.Fatalf("CSV has %d lines, fmt reference %d", len(got), len(ref))
	}
}

func TestSamplerWriteCSVMatchesFmt(t *testing.T) {
	t.Run("no procs", func(t *testing.T) {
		requireFmtCSV(t, &Sampler{Procs: 0, Samples: []Sample{
			{Time: 0, Busy: 3, Queued: 2, MaxQueuedXFactor: 1},
			{Time: 7, Busy: 0},
		}})
	})
	t.Run("zeros", func(t *testing.T) {
		// An idle machine with an empty queue: utilization and max
		// queued xfactor both +0.
		requireFmtCSV(t, &Sampler{Procs: 4, Samples: []Sample{
			{Time: 0},
			{Time: 60, Busy: 2, Queued: 1, MaxQueuedXFactor: 1},
			{Time: 120, MaxQueuedXFactor: math.Copysign(0, -1)},
		}})
	})
	t.Run("large values", func(t *testing.T) {
		requireFmtCSV(t, &Sampler{Procs: 1 << 20, Samples: []Sample{
			{Time: math.MaxInt64, Busy: math.MaxInt32, Queued: 1 << 40,
				Running: 123456789, Suspended: 987654321, MaxQueuedXFactor: 1e15},
			{Time: math.MinInt64, Busy: -1, MaxQueuedXFactor: math.MaxFloat64},
			{Time: 1 << 53, Busy: 1, MaxQueuedXFactor: math.SmallestNonzeroFloat64},
		}})
	})
	t.Run("rounding boundaries", func(t *testing.T) {
		s := &Sampler{Procs: 2_000_000}
		// Busy/Procs lands on k·5e-7, the halfway points of the sixth
		// decimal; the xfactor column walks x.yyyyyy5 in both directions.
		for k := range 40 {
			x := 1 + float64(k)*1e-6 + 5e-7
			s.Samples = append(s.Samples,
				Sample{Time: int64(k), Busy: k, MaxQueuedXFactor: x},
				Sample{Time: int64(k) + 100, Busy: 2*k + 1, MaxQueuedXFactor: math.Nextafter(x, 0)},
				Sample{Time: int64(k) + 200, Busy: 2*k + 1, MaxQueuedXFactor: math.Nextafter(x, 2)},
				Sample{Time: int64(k) + 300, Busy: k, MaxQueuedXFactor: float64(2*k+1) * 5e-7},
				Sample{Time: int64(k) + 400, Busy: k, MaxQueuedXFactor: float64(k) + 0.9999995},
			)
		}
		requireFmtCSV(t, s)
	})
	t.Run("near ties and edges", func(t *testing.T) {
		s := &Sampler{Procs: 7}
		add := func(x float64) {
			s.Samples = append(s.Samples, Sample{Time: int64(len(s.Samples)), Busy: len(s.Samples) % 8, MaxQueuedXFactor: x})
		}
		for _, k := range []float64{0, 1, 2, 3, 7, 999_999, 1_000_000, 1_234_567, 4_503_599_627} {
			for _, d := range []float64{-5e-7, 5e-7} {
				x := k/1e6 + d
				add(x)
				add(math.Nextafter(x, 0))
				add(math.Nextafter(x, math.Inf(1)))
			}
		}
		for _, x := range []float64{
			9.9999995, 99.9999995, 0.0078125, 0.0234375, 1.0000005, 4.76837158203125e-7,
			1 << 52, math.Nextafter(1<<52, 0), math.Nextafter(1<<52, math.Inf(1)), 1<<52 - 0.5, 1<<52 + 1,
			math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0), 0x1p-1023,
			0x1p-63, 0x1p-64, 0x1p-73, 0x1p-74, math.Copysign(0, -1), -1.5, math.NaN(),
			math.Inf(1), math.Inf(-1),
		} {
			add(x)
		}
		requireFmtCSV(t, s)
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		s := &Sampler{Procs: 1 + rng.Intn(1024)}
		for i := range 20_000 {
			xf := 1 + rng.ExpFloat64()*float64(int64(1)<<rng.Intn(30))
			if i%7 == 0 {
				xf = 0
			}
			s.Samples = append(s.Samples, Sample{
				Time: rng.Int63n(1 << 40), Busy: rng.Intn(s.Procs + 1),
				Queued: rng.Intn(5000), Running: rng.Intn(500), Suspended: rng.Intn(500),
				MaxQueuedXFactor: xf,
			})
		}
		requireFmtCSV(t, s)
	})
}

// FuzzAppendFixed6 checks appendFixed6 against strconv over raw float64
// bit patterns, so every exponent and tie is reachable.
func FuzzAppendFixed6(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, 0.5e-6, 9.9999995, 0.0078125, 1 << 52, math.SmallestNonzeroFloat64, math.NaN()} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		if got, want := appendFixed6(nil, v), strconv.AppendFloat(nil, v, 'f', 6, 64); string(got) != string(want) {
			t.Fatalf("appendFixed6(%b) = %s, strconv %s", b, got, want)
		}
	})
}

// TestAppendFixed6AllocatesNothing pins the fast path at zero
// allocations when the buffer has room.
func TestAppendFixed6AllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 64)
	vals := []float64{0, 0.5, 1, 1.0000005, 123456.789, 0x1p-70, 1<<52 - 1}
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			buf = appendFixed6(buf[:0], v)
		}
	}); n != 0 {
		t.Fatalf("appendFixed6 allocated %v times per run, want 0", n)
	}
}

// csvSampler is a sampler of n rows with values of realistic width.
func csvSampler(n int) *Sampler {
	s := &Sampler{Procs: 128}
	for i := range n {
		s.Samples = append(s.Samples, Sample{
			Time: int64(i) * 61, Busy: i % 129, Queued: i % 300,
			Running: i % 40, Suspended: i % 9, MaxQueuedXFactor: 1 + float64(i)/7,
		})
	}
	return s
}

// TestSamplerWriteCSVAllocsFlat pins WriteCSV's allocations to a
// constant: the row buffer is reused, so 10,000 rows allocate no more
// than 10.
func TestSamplerWriteCSVAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		s := csvSampler(n)
		return testing.AllocsPerRun(5, func() {
			if err := s.WriteCSV(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10), allocs(10_000); small != large {
		t.Fatalf("WriteCSV allocs: %v for 10 rows, %v for 10000 rows; want equal", small, large)
	}
}

func BenchmarkSamplerWriteCSV(b *testing.B) {
	s := csvSampler(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
