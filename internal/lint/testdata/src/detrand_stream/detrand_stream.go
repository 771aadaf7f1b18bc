// Package fixture exercises detrand's import and constructor rules. It
// is loaded under a cmd-style path, outside pjs/internal/fault and
// pjs/internal/workload, so every RNG constructor is a finding, and the
// unsafe and reflect imports are findings wherever they appear.
package fixture

import (
	"math/rand"
	randv2 "math/rand/v2"
	"reflect" // want "import of reflect can turn pointer identity into a number"
	"time"
	"unsafe" // want "import of unsafe can turn pointer identity into a number"
)

// Config carries the explicitly threaded seed.
type Config struct {
	Seed int64
}

// fromClock seeds a stream from the wall clock, which cmd/ may read.
func fromClock() rand.Source {
	return rand.NewSource(time.Now().UnixNano()) // want "rand.NewSource builds an RNG outside pjs/internal/fault and pjs/internal/workload"
}

// fromConfig is the shape the stream packages use, but a stream built
// here is still outside them.
func fromConfig(src rand.Source) *rand.Rand {
	return rand.New(src) // want "rand.New builds an RNG outside"
}

// zipf builds a derived generator.
func zipf(r *rand.Rand) *rand.Zipf {
	return rand.NewZipf(r, 1.5, 2, 10) // want "rand.NewZipf builds an RNG outside"
}

// pcg and chacha are the math/rand/v2 sources.
func pcg(cfg Config) *randv2.PCG {
	return randv2.NewPCG(uint64(cfg.Seed), 0) // want "rand.NewPCG builds an RNG outside"
}

func chacha(seed [32]byte) *randv2.ChaCha8 {
	return randv2.NewChaCha8(seed) // want "rand.NewChaCha8 builds an RNG outside"
}

// address turns pointer identity into a number through each package.
func address(cfg *Config) (uintptr, uintptr) {
	return uintptr(unsafe.Pointer(cfg)), reflect.ValueOf(cfg).Pointer()
}
