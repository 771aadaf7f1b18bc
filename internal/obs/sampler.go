package obs

import (
	"io"
	"math"
	"math/bits"
	"strconv"

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

// Sampler records a Sample at every engine event, coalescing events
// that share a virtual instant into the last (settled) state of that
// instant. It implements sched.Observer.
type Sampler struct {
	// Procs is the machine size, the denominator of the utilization
	// column.
	Procs int
	// Samples is the recorded series, strictly increasing in Time.
	Samples []Sample
}

// NewSampler returns an empty sampler for a machine of the given size.
func NewSampler(procs int) *Sampler {
	return &Sampler{Procs: procs}
}

// Observe implements sched.Observer.
func (s *Sampler) Observe(ev sched.Event) {
	smp := Sample{
		Time:             ev.Time,
		Busy:             ev.Busy,
		Queued:           ev.Queued,
		Running:          ev.Running,
		Suspended:        ev.Suspended,
		MaxQueuedXFactor: ev.MaxQueuedXFactor,
	}
	if n := len(s.Samples); n > 0 && s.Samples[n-1].Time == ev.Time {
		s.Samples[n-1] = smp
		return
	}
	s.Samples = append(s.Samples, smp)
}

// WriteCSV emits the series as CSV, one Write per row. Every write
// error is propagated: a truncated time series must fail loudly, not
// plot plausibly.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w,
		"time,busy,utilization,queued,running,suspended,max_queued_xfactor\n"); err != nil {
		return err
	}
	row := make([]byte, 0, 128)
	for _, smp := range s.Samples {
		u := 0.0
		if s.Procs > 0 {
			u = float64(smp.Busy) / float64(s.Procs)
		}
		row = strconv.AppendInt(row[:0], smp.Time, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(smp.Busy), 10)
		row = append(row, ',')
		row = appendFixed6(row, u)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(smp.Queued), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(smp.Running), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(smp.Suspended), 10)
		row = append(row, ',')
		row = appendFixed6(row, smp.MaxQueuedXFactor)
		row = append(row, '\n')
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// appendFixed6 appends v with six decimals, byte-identical to
// strconv.AppendFloat(dst, v, 'f', 6, 64), which sends every fixed
// precision to its big-decimal path. For positive normal v below 2⁵² it
// splits v = mant/2^s into integer and fractional bits, multiplies the
// fraction by 10⁶ in 128 bits and rounds half to even on the exact
// remainder. +0, the value of every idle or empty-queue sample, is
// written directly. Negative numbers, −0, subnormals, NaN, ±Inf and
// values from 2⁵² up go to strconv.
func appendFixed6(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	if b == 0 {
		return append(dst, "0.000000"...)
	}
	e := uint(b>>52) & 0x7ff
	if b>>63 != 0 || e == 0 || e >= 1023+52 {
		return strconv.AppendFloat(dst, v, 'f', 6, 64)
	}
	mant := b&(1<<52-1) | 1<<52
	s := 1023 + 52 - e // v = mant / 2^s, 1 <= s <= 1074
	var ip, q uint64
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
	dst = strconv.AppendUint(dst, ip, 10)
	dst = append(dst, '.', '0', '0', '0', '0', '0', '0')
	for i := len(dst) - 1; q > 0; i-- {
		dst[i] = byte('0' + q%10)
		q /= 10
	}
	return dst
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
