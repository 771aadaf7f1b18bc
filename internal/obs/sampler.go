package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"

	"pjs/internal/decimal"
	"pjs/internal/sched"
)

// Sample is one time-series row: the machine state at the end of one
// virtual instant.
type Sample struct {
	Time             int64
	Busy             int // processors owned by jobs
	Queued           int
	Running          int
	Suspended        int
	MaxQueuedXFactor float64
}

// row is a Sample as the Sampler stores it: 32 bytes, the counts as
// int32.
type row struct {
	time int64
	census
	xfactor float64
}

// census is a row's counts, from which its utilization follows.
type census struct {
	busy, queued, running, suspended int32
}

// chunkRows is the number of rows in one chunk: 1024 rows of 32 bytes,
// the largest small-object size.
const chunkRows = 1024

// Sampler records a Sample at every engine event, coalescing events
// that share a virtual instant into the last (settled) state of that
// instant. It implements sched.Observer.
//
// The rows live in fixed-size chunks that are allocated as the series
// grows and never copied.
type Sampler struct {
	// Procs is the machine size, the denominator of the utilization
	// column.
	Procs int

	chunks []*[chunkRows]row
	n      int // rows recorded

	// block is WriteCSV's output buffer for a writer that does not
	// lend its own, made at the first such call and reused after it.
	block []byte
}

// NewSampler returns an empty sampler for a machine of the given size.
func NewSampler(procs int) *Sampler {
	return &Sampler{Procs: procs}
}

// Len returns the number of recorded rows.
func (s *Sampler) Len() int { return s.n }

// At returns row i of the series, which is strictly increasing in Time.
func (s *Sampler) At(i int) Sample {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("obs: Sampler.At(%d) out of range [0,%d)", i, s.n))
	}
	r := s.slot(i)
	return Sample{
		Time: r.time, Busy: int(r.busy), Queued: int(r.queued), Running: int(r.running),
		Suspended: int(r.suspended), MaxQueuedXFactor: r.xfactor,
	}
}

// slot returns the storage of row i.
func (s *Sampler) slot(i int) *row {
	return &s.chunks[i/chunkRows][i%chunkRows]
}

// Observe implements sched.Observer. It panics on a count that does
// not fit in int32 rather than record a wrong one.
func (s *Sampler) Observe(ev sched.Event) {
	r := row{
		time: ev.Time,
		census: census{
			busy:      count("busy", ev.Busy),
			queued:    count("queued", ev.Queued),
			running:   count("running", ev.Running),
			suspended: count("suspended", ev.Suspended),
		},
		xfactor: ev.MaxQueuedXFactor,
	}
	if s.n > 0 && s.slot(s.n-1).time == ev.Time {
		*s.slot(s.n - 1) = r
		return
	}
	if s.n%chunkRows == 0 {
		s.chunks = append(s.chunks, new([chunkRows]row))
	}
	*s.slot(s.n) = r
	s.n++
}

// count narrows a census count to the row's int32.
func count(name string, v int) int32 {
	if v > math.MaxInt32 || v < math.MinInt32 {
		panic(fmt.Sprintf("obs: Sampler %s count %d does not fit in int32", name, v))
	}
	return int32(v)
}

// csvHeader is the first line of WriteCSV's output.
const csvHeader = "time,busy,utilization,queued,running,suspended,max_queued_xfactor\n"

// csvBlock is the byte count WriteCSV gathers before each Write.
const csvBlock = 32 << 10

// WriteCSV emits the series as CSV in blocks of about 32 KB, so a
// plain writer such as a file sees a few large writes, not one per
// row. A writer with a Grow(int) method (bytes.Buffer,
// strings.Builder) is first grown by the exact byte count; if it also
// lends its free capacity through AvailableBuffer (bytes.Buffer), the
// rows are appended there, and any other writer gets them through a
// block the Sampler keeps, so calls on one Sampler must not overlap.
// A row repeats the previous row's census columns when its counts are
// the same, which most tick rows' are. Every write error is
// propagated: a truncated time series must fail loudly, not plot
// plausibly.
func (s *Sampler) WriteCSV(w io.Writer) error {
	var lend interface{ AvailableBuffer() []byte }
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(s.csvLen())
		lend, _ = w.(interface{ AvailableBuffer() []byte })
	}
	next := func() []byte {
		if lend != nil {
			return lend.AvailableBuffer()
		}
		if s.block == nil {
			s.block = make([]byte, 0, csvBlock+512)
		}
		return s.block[:0]
	}
	buf := append(next(), csvHeader...)
	var last census
	from, to := 0, 0 // last's columns in buf; empty when not there
	for c := range s.chunks {
		for k := range s.rowsIn(c) {
			r := &s.chunks[c][k]
			if len(buf) >= csvBlock {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf, from, to = next(), 0, 0
			}
			buf = strconv.AppendInt(buf, r.time, 10)
			if to == 0 || r.census != last {
				last, from = r.census, len(buf)
				buf = s.appendCensus(buf, r.census)
				to = len(buf)
			} else {
				buf = append(buf, buf[from:to]...)
			}
			buf = appendFixed6(buf, r.xfactor)
			buf = append(buf, '\n')
		}
	}
	_, err := w.Write(buf)
	return err
}

// rowsIn returns the number of rows recorded in chunk c.
func (s *Sampler) rowsIn(c int) int {
	return min(chunkRows, s.n-c*chunkRows)
}

// appendCensus appends the columns between a row's time and its
// xfactor: ",busy,utilization,queued,running,suspended,".
func (s *Sampler) appendCensus(dst []byte, c census) []byte {
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(c.busy), 10)
	dst = append(dst, ',')
	dst = appendFixed6(dst, s.utilization(c))
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(c.queued), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(c.running), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(c.suspended), 10)
	return append(dst, ',')
}

// utilization is census c's busy share of the machine, 0 without a
// machine size.
func (s *Sampler) utilization(c census) float64 {
	if s.Procs > 0 {
		return float64(c.busy) / float64(s.Procs)
	}
	return 0
}

// csvLen is the byte count of WriteCSV's output. Like WriteCSV, it
// counts a row's census columns only when they differ from the
// previous row's.
func (s *Sampler) csvLen() int {
	n := len(csvHeader)
	var last census
	cols := 0 // last's column bytes; 0 before the first row
	for c := range s.chunks {
		for k := range s.rowsIn(c) {
			r := &s.chunks[c][k]
			if cols == 0 || r.census != last {
				last = r.census
				cols = len(",,,,,,") + decimal.Len(int64(r.busy)) + fixed6Len(s.utilization(r.census)) +
					decimal.Len(int64(r.queued)) + decimal.Len(int64(r.running)) + decimal.Len(int64(r.suspended))
			}
			n += decimal.Len(r.time) + cols + fixed6Len(r.xfactor) + len("\n")
		}
	}
	return n
}

// appendFixed6 appends v with six decimals, byte-identical to
// strconv.AppendFloat(dst, v, 'f', 6, 64), which sends every fixed
// precision to its big-decimal path. The values fixed6 splits are
// written from their parts; the others go to strconv.
func appendFixed6(dst []byte, v float64) []byte {
	ip, q, ok := fixed6(v)
	if !ok {
		return strconv.AppendFloat(dst, v, 'f', 6, 64)
	}
	dst = strconv.AppendUint(dst, ip, 10)
	dst = append(dst, '.', '0', '0', '0', '0', '0', '0')
	for i := len(dst) - 1; q > 0; i-- {
		dst[i] = byte('0' + q%10)
		q /= 10
	}
	return dst
}

// fixed6Len is len(appendFixed6(nil, v)).
func fixed6Len(v float64) int {
	ip, _, ok := fixed6(v)
	if !ok {
		var buf [32]byte
		return len(strconv.AppendFloat(buf[:0], v, 'f', 6, 64))
	}
	return decimal.ULen(ip) + len(".000000")
}

// fixed6 splits v into its integer part ip and its six decimals q,
// rounded half to even, with ok true, for +0 and for positive normal v
// below 2⁵². It splits v = mant/2^s into integer and fractional bits,
// multiplies the fraction by 10⁶ in 128 bits and rounds on the exact
// remainder. +0 is the value of every idle or empty-queue sample.
// Negative numbers, −0, subnormals, NaN, ±Inf and values from 2⁵² up
// give ok false.
func fixed6(v float64) (ip, q uint64, ok bool) {
	b := math.Float64bits(v)
	if b == 0 {
		return 0, 0, true
	}
	e := uint(b>>52) & 0x7ff
	if b>>63 != 0 || e == 0 || e >= 1023+52 {
		return 0, 0, false
	}
	mant := b&(1<<52-1) | 1<<52
	s := 1023 + 52 - e // v = mant / 2^s, 1 <= s <= 1074
	switch {
	case s < 64:
		ip = mant >> s
		q = roundShift(mant&(1<<s-1), s)
	case s < 74:
		q = roundShift(mant, s)
	default:
		// v < 2⁵³/2⁷⁴, so v·10⁶ < 0.48 rounds to 0.
	}
	if q == 1_000_000 {
		ip, q = ip+1, 0
	}
	return ip, q, true
}

// roundShift returns frac·10⁶ / 2^s rounded half to even, for
// frac < 2⁵³ and 1 <= s < 74. The product has at most 73 bits; when s
// is 64 or more it is first narrowed by 10 bits into one word, keeping
// the dropped bits as a sticky flag so that ties stay exact.
func roundShift(frac uint64, s uint) uint64 {
	hi, lo := bits.Mul64(frac, 1_000_000)
	sticky := false
	if s >= 64 {
		sticky = lo&(1<<10-1) != 0
		hi, lo, s = 0, hi<<54|lo>>10, s-10
	}
	q := hi<<(64-s) | lo>>s
	r, half := lo&(1<<s-1), uint64(1)<<(s-1)
	if r > half || r == half && (sticky || q&1 == 1) {
		q++
	}
	return q
}
