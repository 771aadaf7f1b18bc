// Package decimal counts the bytes of base-10 integer renderings, so a
// writer can reserve an exact buffer before it appends with strconv.
package decimal

import "math/bits"

// pow10 holds 10⁰ … 10¹⁹, every power of ten below 2⁶⁴.
var pow10 = [...]uint64{
	1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// ULen returns len(strconv.AppendUint(nil, v, 10)).
func ULen(v uint64) int {
	if v == 0 {
		return 1
	}
	// bits·1233/4096 is ⌊log10 2^bits⌋, which is the digit count of v or
	// one more; the table settles which.
	n := bits.Len64(v) * 1233 >> 12
	if v < pow10[n] {
		return n
	}
	return n + 1
}

// Len returns len(strconv.AppendInt(nil, v, 10)).
func Len(v int64) int {
	if v < 0 {
		return 1 + ULen(uint64(-v)) // -MinInt64 wraps to 2⁶³, its magnitude
	}
	return ULen(uint64(v))
}
