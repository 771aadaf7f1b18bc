package fault

import "math/rand"

// Exact math/rand streams without the seeding cost.
//
// rand.NewSource is an additive lagged Fibonacci generator over a
// 607-word register, out[n] = out[n-607] + out[n-273]. Seeding fills
// the register from a Lehmer LCG, x[k] = seed·48271^k mod (2^31−1):
//
//	V[i] = rngCooked[i] ^ (x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i])
//
// which is 1,842 LCG steps and a 4.9 KB register per source. Draw
// n < 273 reads only initial words, out[n] = V[333−n] + V[606−n], so
// lazySource computes each such draw from a shared table of 48271^k:
// six modular products, with the seed and a draw counter as its only
// state. At draw
// 273 the first overwritten word comes back round as the tap, and the
// source hands over to a real rand.NewSource advanced by 273 draws, so
// the stream stays exact at any length.

const (
	lcgMod  = 1<<31 - 1 // the Lehmer modulus
	lcgSeed = 89482311  // what rand.NewSource seeds with in place of 0
	regLen  = 607       // register length, the long lag
	regTap  = 273       // the short lag: lazy draws end here
	lcgLen  = 24 + 3*(regLen-1)
)

var (
	// lcgPow holds 48271^k mod (2^31−1) for every LCG step seeding uses.
	lcgPow [lcgLen]uint64
	// cooked is math/rand's unexported rngCooked table, recovered in
	// init from rand.NewSource(1).
	cooked [regLen]uint64
)

func init() {
	p := uint64(1)
	for k := range lcgPow {
		lcgPow[k] = p
		p = p * 48271 % lcgMod
	}
	// s[regLen+j] is output j of rand.NewSource(1) for j >= 0; for
	// -607 <= j < 0 it is the register word that output j+607 reads as
	// its feed, V[(333−j) mod 607]. The recurrence s[j] = s[j+607] −
	// s[j+334] recovers those words from the first 607 outputs, walking
	// j down so that s[j+334] is known before it is needed.
	var s [2 * regLen]uint64
	src := rand.NewSource(1).(rand.Source64)
	for n := regLen; n < len(s); n++ {
		s[n] = src.Uint64()
	}
	for n := regLen - 1; n >= 0; n-- {
		s[n] = s[n+regLen] - s[n+regLen-regTap]
	}
	for i := range cooked {
		cooked[i] = s[(regLen+333-i)%regLen] ^ lcgWord(1, i)
	}
}

// lcgWord is the LCG part of register word i under the reduced seed x0.
func lcgWord(x0 uint64, i int) uint64 {
	k := 21 + 3*i
	return (x0*lcgPow[k]%lcgMod)<<40 ^ (x0*lcgPow[k+1]%lcgMod)<<20 ^ x0*lcgPow[k+2]%lcgMod
}

// lazySource is a rand.Source64 that returns exactly what
// rand.NewSource(seed) would, building the register only if a stream
// runs past regTap draws.
type lazySource struct {
	seed int64         // as given to Seed
	x0   uint64        // seed reduced as rand.NewSource reduces it
	n    int           // draws made
	src  rand.Source64 // nil until draw regTap
}

func newLazySource(seed int64) *lazySource {
	s := new(lazySource)
	s.Seed(seed)
	return s
}

// Seed resets the source to the start of seed's stream.
func (s *lazySource) Seed(seed int64) {
	r := seed % lcgMod
	if r < 0 {
		r += lcgMod
	}
	if r == 0 {
		r = lcgSeed
	}
	*s = lazySource{seed: seed, x0: uint64(r)}
}

// Uint64 returns the next output of the stream.
func (s *lazySource) Uint64() uint64 {
	if s.n < regTap {
		n := s.n
		s.n++
		return s.word(regLen-regTap-1-n) + s.word(regLen-1-n)
	}
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
		for i := 0; i < regTap; i++ {
			s.src.Uint64()
		}
	}
	return s.src.Uint64()
}

// Int63 returns the next output with its top bit cleared.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// word returns initial register word i.
func (s *lazySource) word(i int) uint64 { return cooked[i] ^ lcgWord(s.x0, i) }
