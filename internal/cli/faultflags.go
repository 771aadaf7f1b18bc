package cli

import (
	"flag"
	"fmt"

	"pjs/internal/fault"
)

// FaultFlags registers on fs the fault-injection flags every simulating
// command shares: -mtbf and -mttr in hours, -fault-seed, the transient
// -io-write-fail and -io-read-fail probabilities and -io-seed. After
// fs.Parse, the returned function validates them and returns the two
// configurations; each is the zero value unless its injection is on.
func FaultFlags(fs *flag.FlagSet) func() (fault.Config, fault.TransientConfig, error) {
	var (
		mtbf      = fs.Float64("mtbf", 0, "per-processor mean time between failures in hours (0 disables fault injection)")
		mttr      = fs.Float64("mttr", 0, "mean time to repair in hours (with -mtbf; 0 means failures are permanent)")
		faultSeed = fs.Int64("fault-seed", 1, "fault-injection seed (with -mtbf)")
		ioWrite   = fs.Float64("io-write-fail", 0, "probability a suspend-image write fails transiently (0 disables)")
		ioRead    = fs.Float64("io-read-fail", 0, "probability a restart-image read fails transiently (0 disables)")
		ioSeed    = fs.Int64("io-seed", 1, "transient I/O fault stream seed")
	)
	return func() (fc fault.Config, tc fault.TransientConfig, err error) {
		if *mtbf < 0 || *mttr < 0 {
			return fc, tc, fmt.Errorf("-mtbf and -mttr must be ≥ 0 hours, got %g/%g", *mtbf, *mttr)
		}
		if *ioWrite < 0 || *ioWrite > 1 || *ioRead < 0 || *ioRead > 1 {
			return fc, tc, fmt.Errorf("-io-write-fail and -io-read-fail must be in [0,1], got %g/%g", *ioWrite, *ioRead)
		}
		if *mtbf > 0 {
			fc = fault.Config{MTBF: int64(*mtbf * 3600), MTTR: int64(*mttr * 3600), Seed: *faultSeed}
		}
		if *ioWrite > 0 || *ioRead > 0 {
			tc = fault.TransientConfig{WriteFailProb: *ioWrite, ReadFailProb: *ioRead, Seed: *ioSeed}
		}
		return fc, tc, nil
	}
}
