package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"pjs/internal/sched"
)

// add records each row through Observe, as the event of its instant.
func add(s *Sampler, rows ...Sample) {
	for _, smp := range rows {
		s.Observe(sched.Event{Entry: sched.Entry{Time: smp.Time}, Busy: smp.Busy, Queued: smp.Queued,
			Running: smp.Running, Suspended: smp.Suspended, MaxQueuedXFactor: smp.MaxQueuedXFactor})
	}
}

// samplerOf is a sampler of the given machine size holding rows.
func samplerOf(procs int, rows ...Sample) *Sampler {
	s := NewSampler(procs)
	add(s, rows...)
	return s
}

// fmtCSV is the reference rendering WriteCSV must reproduce byte for
// byte: the header and one fmt.Fprintf of "%d,%d,%.6f,%d,%d,%d,%.6f"
// per row.
func fmtCSV(procs int, rows []Sample) string {
	var b strings.Builder
	b.WriteString("time,busy,utilization,queued,running,suspended,max_queued_xfactor\n")
	for _, smp := range rows {
		u := 0.0
		if procs > 0 {
			u = float64(smp.Busy) / float64(procs)
		}
		fmt.Fprintf(&b, "%d,%d,%.6f,%d,%d,%d,%.6f\n",
			smp.Time, smp.Busy, u, smp.Queued, smp.Running, smp.Suspended,
			smp.MaxQueuedXFactor)
	}
	return b.String()
}

// rowsOf returns the sampler's series as one slice.
func rowsOf(s *Sampler) []Sample {
	rows := make([]Sample, s.Len())
	for i := range rows {
		rows[i] = s.At(i)
	}
	return rows
}

func requireFmtCSV(t *testing.T, s *Sampler) {
	t.Helper()
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if want := fmtCSV(s.Procs, rowsOf(s)); b.String() != want {
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
		requireFmtCSV(t, samplerOf(0,
			Sample{Time: 0, Busy: 3, Queued: 2, MaxQueuedXFactor: 1},
			Sample{Time: 7, Busy: 0},
		))
	})
	t.Run("zeros", func(t *testing.T) {
		// An idle machine with an empty queue: utilization and max
		// queued xfactor both +0.
		requireFmtCSV(t, samplerOf(4,
			Sample{Time: 0},
			Sample{Time: 60, Busy: 2, Queued: 1, MaxQueuedXFactor: 1},
			Sample{Time: 120, MaxQueuedXFactor: math.Copysign(0, -1)},
		))
	})
	t.Run("large values", func(t *testing.T) {
		requireFmtCSV(t, samplerOf(1<<20,
			Sample{Time: math.MaxInt64, Busy: math.MaxInt32, Queued: math.MaxInt32,
				Running: 123456789, Suspended: 987654321, MaxQueuedXFactor: 1e15},
			Sample{Time: math.MinInt64, Busy: -1, MaxQueuedXFactor: math.MaxFloat64},
			Sample{Time: 1 << 53, Busy: 1, MaxQueuedXFactor: math.SmallestNonzeroFloat64},
		))
	})
	t.Run("rounding boundaries", func(t *testing.T) {
		s := NewSampler(2_000_000)
		// Busy/Procs lands on k·5e-7, the halfway points of the sixth
		// decimal; the xfactor column walks x.yyyyyy5 in both directions.
		for k := range 40 {
			x := 1 + float64(k)*1e-6 + 5e-7
			add(s,
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
		s := NewSampler(7)
		addX := func(x float64) {
			add(s, Sample{Time: int64(s.Len()), Busy: s.Len() % 8, MaxQueuedXFactor: x})
		}
		for _, k := range []float64{0, 1, 2, 3, 7, 999_999, 1_000_000, 1_234_567, 4_503_599_627} {
			for _, d := range []float64{-5e-7, 5e-7} {
				x := k/1e6 + d
				addX(x)
				addX(math.Nextafter(x, 0))
				addX(math.Nextafter(x, math.Inf(1)))
			}
		}
		for _, x := range []float64{
			9.9999995, 99.9999995, 0.0078125, 0.0234375, 1.0000005, 4.76837158203125e-7,
			1 << 52, math.Nextafter(1<<52, 0), math.Nextafter(1<<52, math.Inf(1)), 1<<52 - 0.5, 1<<52 + 1,
			math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0), 0x1p-1023,
			0x1p-63, 0x1p-64, 0x1p-73, 0x1p-74, math.Copysign(0, -1), -1.5, math.NaN(),
			math.Inf(1), math.Inf(-1),
		} {
			addX(x)
		}
		requireFmtCSV(t, s)
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		s := NewSampler(1 + rng.Intn(1024))
		for i := range 20_000 {
			xf := 1 + rng.ExpFloat64()*float64(int64(1)<<rng.Intn(30))
			if i%7 == 0 {
				xf = 0
			}
			add(s, Sample{
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
	s := NewSampler(128)
	for i := range n {
		add(s, Sample{
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

// writeCounter is a plain writer that counts its writes and bytes.
type writeCounter struct{ writes, bytes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestSamplerWriteCSVWritesInBlocks pins the block writes: a writer
// that neither grows nor lends its buffer, such as psim's file, gets at
// most ⌈bytes/block⌉+1 writes, not one per row.
func TestSamplerWriteCSVWritesInBlocks(t *testing.T) {
	for _, n := range []int{0, 1, chunkRows, 10_000} {
		s := csvSampler(n)
		var w writeCounter
		if err := s.WriteCSV(&w); err != nil {
			t.Fatal(err)
		}
		if w.bytes != s.csvLen() {
			t.Fatalf("%d rows: %d bytes written, csvLen %d", n, w.bytes, s.csvLen())
		}
		if limit := (w.bytes+csvBlock-1)/csvBlock + 1; w.writes > limit {
			t.Errorf("%d rows: %d writes for %d bytes, want at most %d", n, w.writes, w.bytes, limit)
		}
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

// refSampler is the flat-slice sampler the chunked one replaced: one
// Sample per settled instant in a growing slice, a same-instant event
// overwriting the last row.
type refSampler struct {
	rows []Sample
}

func (r *refSampler) Observe(ev sched.Event) {
	smp := Sample{Time: ev.Time, Busy: ev.Busy, Queued: ev.Queued, Running: ev.Running,
		Suspended: ev.Suspended, MaxQueuedXFactor: ev.MaxQueuedXFactor}
	if n := len(r.rows); n > 0 && r.rows[n-1].Time == ev.Time {
		r.rows[n-1] = smp
		return
	}
	r.rows = append(r.rows, smp)
}

// requireMatchesReference checks the sampler's rows against the
// reference's, and its CSV (into a growable buffer and into a plain
// writer) and csvLen against the fmt rendering of the reference rows.
func requireMatchesReference(t *testing.T, s *Sampler, ref *refSampler) {
	t.Helper()
	if s.Len() != len(ref.rows) {
		t.Fatalf("Len() = %d, reference has %d rows", s.Len(), len(ref.rows))
	}
	for i, want := range ref.rows {
		if got := s.At(i); got != want {
			t.Fatalf("At(%d) = %+v, reference %+v", i, got, want)
		}
	}
	want := fmtCSV(s.Procs, ref.rows)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	var plain strings.Builder
	if err := s.WriteCSV(struct{ io.Writer }{&plain}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want || plain.String() != want {
		t.Fatalf("CSV differs from the reference's fmt rendering (%d rows)", len(ref.rows))
	}
	if s.csvLen() != len(want) {
		t.Fatalf("csvLen() = %d, the fmt rendering has %d bytes (%d rows)", s.csvLen(), len(want), len(ref.rows))
	}
}

// FuzzSamplerMatchesReference feeds the chunked sampler and the
// flat-slice reference the same event stream: n events whose instants
// advance by 0 (a same-instant burst) to 3 seconds, so bursts land on
// every chunk boundary. The census counts are drawn anew at every
// event, or with every > 0 one count only at every every-th event, so
// that runs of rows repeat them as tick rows do, across block
// boundaries; with no bursts and every = chunkRows they change exactly
// where a chunk begins. Rows and CSV bytes must be equal.
func FuzzSamplerMatchesReference(f *testing.F) {
	for _, n := range []uint16{0, 1, 2, chunkRows - 1, chunkRows, chunkRows + 1, 3*chunkRows + 7} {
		f.Add(int64(n), n, uint8(3), uint8(16), uint16(0))
	}
	f.Add(int64(5), uint16(50), uint8(0), uint8(1), uint16(0))
	for _, every := range []uint16{chunkRows - 1, chunkRows, chunkRows + 1, 3000} {
		f.Add(int64(every), uint16(3*chunkRows+7), uint8(0), uint8(16), every)
	}
	f.Add(int64(6), uint16(4*chunkRows-1), uint8(3), uint8(128), uint16(700))
	f.Add(int64(7), uint16(4*chunkRows-1), uint8(2), uint8(64), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, burst, procs uint8, every uint16) {
		rng := rand.New(rand.NewSource(seed))
		s, ref := NewSampler(int(procs)), &refSampler{}
		now := rng.Int63n(1000)
		var ev sched.Event
		for i := range int(n) % (4 * chunkRows) {
			if burst == 0 || rng.Intn(int(burst)+1) != 0 {
				now += 1 + rng.Int63n(3)
			}
			ev.Time = now
			switch {
			case every == 0 || i == 0:
				ev.Busy, ev.Queued = rng.Intn(int(procs)+1), rng.Intn(300)
				ev.Running, ev.Suspended = rng.Intn(40), rng.Intn(9)
			case i%int(every) == 0:
				// One count at a time, so that a row differing from
				// the previous one in a single column is common.
				switch rng.Intn(4) {
				case 0:
					ev.Busy = (ev.Busy + 1) % (int(procs) + 1)
				case 1:
					ev.Queued = (ev.Queued + 1) % 300
				case 2:
					ev.Running = (ev.Running + 1) % 40
				default:
					ev.Suspended = (ev.Suspended + 1) % 9
				}
			}
			ev.MaxQueuedXFactor = 0
			if ev.Queued > 0 {
				ev.MaxQueuedXFactor = 1 + rng.ExpFloat64()
			}
			s.Observe(ev)
			ref.Observe(ev)
		}
		requireMatchesReference(t, s, ref)
	})
}

// observeAt feeds both samplers one event at instant at.
func observeAt(s *Sampler, ref *refSampler, at int64, busy int) {
	ev := sched.Event{Entry: sched.Entry{Time: at}, Busy: busy, Queued: busy % 3, MaxQueuedXFactor: float64(busy)}
	s.Observe(ev)
	ref.Observe(ev)
}

// TestSamplerCoalescesAtChunkBoundary overwrites the row that ends a
// full chunk: the burst must stay one row in the first chunk, and the
// next instant must open the second.
func TestSamplerCoalescesAtChunkBoundary(t *testing.T) {
	s, ref := NewSampler(8), &refSampler{}
	for i := range chunkRows {
		observeAt(s, ref, int64(i), i%9)
	}
	observeAt(s, ref, chunkRows-1, 7)
	observeAt(s, ref, chunkRows-1, 8)
	if s.Len() != chunkRows || len(s.chunks) != 1 || s.At(chunkRows-1).Busy != 8 {
		t.Fatalf("after a burst on the chunk's last row: Len %d, %d chunks, last row %+v; want %d, 1, busy 8",
			s.Len(), len(s.chunks), s.At(chunkRows-1), chunkRows)
	}
	requireMatchesReference(t, s, ref)
	observeAt(s, ref, chunkRows, 1)
	observeAt(s, ref, chunkRows, 2)
	if s.Len() != chunkRows+1 || len(s.chunks) != 2 {
		t.Fatalf("next instant: Len %d, %d chunks; want %d, 2", s.Len(), len(s.chunks), chunkRows+1)
	}
	requireMatchesReference(t, s, ref)
}

func TestSamplerEmptyAndSingleInstant(t *testing.T) {
	s, ref := NewSampler(4), &refSampler{}
	requireMatchesReference(t, s, ref)
	for busy := range 5 {
		observeAt(s, ref, 42, busy)
	}
	if s.Len() != 1 || s.At(0).Busy != 4 {
		t.Fatalf("one instant: Len %d, row %+v; want 1 row, busy 4", s.Len(), s.At(0))
	}
	requireMatchesReference(t, s, ref)
}

func TestSamplerAtOutOfRangePanics(t *testing.T) {
	s := samplerOf(4, Sample{Time: 1})
	for _, i := range []int{-1, 1, chunkRows - 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) of a one-row sampler did not panic", i)
				}
			}()
			s.At(i)
		}()
	}
}

// TestSamplerObservePanicsOnWideCount pins the int32 storage: a count
// it cannot hold panics instead of being truncated.
func TestSamplerObservePanicsOnWideCount(t *testing.T) {
	wide := math.MaxInt32
	wide++
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "queued count 2147483648 does not fit in int32") {
			t.Fatalf("panic %q, want the queued count named", msg)
		}
	}()
	NewSampler(4).Observe(sched.Event{Queued: wide})
}

// growRecorder is a writer with a Grow method that records each call.
type growRecorder struct {
	grows []int
	bytes.Buffer
}

func (g *growRecorder) Grow(n int) {
	g.grows = append(g.grows, n)
	g.Buffer.Grow(n)
}

// TestSamplerWriteCSVGrowsBufferOnce pins the exact reservation:
// WriteCSV grows a writer that can grow once, by the byte count it then
// writes. A bytes.Buffer therefore ends with the capacity one Grow
// gives, and for small series WriteCSV allocates into it what it
// allocates into io.Discard plus what that one Grow does. (At large
// sizes the allocation count picks up the runtime's own allocations
// during the garbage collections the buffer triggers.)
func TestSamplerWriteCSVGrowsBufferOnce(t *testing.T) {
	for _, n := range []int{0, 10, 100, 2*chunkRows + 5, 10_000} {
		s := csvSampler(n)
		var g growRecorder
		if err := s.WriteCSV(&g); err != nil {
			t.Fatal(err)
		}
		if len(g.grows) != 1 || g.grows[0] != g.Len() {
			t.Errorf("%d rows: Grow calls %v for %d bytes written", n, g.grows, g.Len())
		}
		var b, one bytes.Buffer
		if err := s.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if one.Grow(s.csvLen()); b.Cap() != one.Cap() {
			t.Errorf("%d rows: buffer capacity %d, one Grow gives %d", n, b.Cap(), one.Cap())
		}
		if n > 100 {
			continue
		}
		grow := testing.AllocsPerRun(5, func() {
			b = bytes.Buffer{}
			b.Grow(s.csvLen())
		})
		discard := testing.AllocsPerRun(5, func() {
			if err := s.WriteCSV(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		buffered := testing.AllocsPerRun(5, func() {
			b = bytes.Buffer{}
			if err := s.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
		})
		if buffered != discard+grow {
			t.Errorf("%d rows: %v allocations into a bytes.Buffer, %v into io.Discard, %v for one Grow", n, buffered, discard, grow)
		}
	}
}
