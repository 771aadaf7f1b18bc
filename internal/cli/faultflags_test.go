package cli

import (
	"flag"
	"io"
	"testing"

	"pjs/internal/fault"
)

// Each configuration is zero unless its injection is on, and -mtbf and
// -mttr are read in hours. The error messages are covered by psim's and
// pexp's TestRunErrorPaths.
func TestFaultFlags(t *testing.T) {
	cases := []struct {
		args []string
		fc   fault.Config
		tc   fault.TransientConfig
	}{
		// Seeds alone enable nothing: both configs stay zero.
		{args: []string{"-fault-seed", "9", "-io-seed", "4", "-mttr", "2"}},
		{args: []string{"-mtbf", "500", "-mttr", "2", "-fault-seed", "7"},
			fc: fault.Config{MTBF: 1800000, MTTR: 7200, Seed: 7}},
		{args: []string{"-mtbf", "0.5"}, fc: fault.Config{MTBF: 1800, Seed: 1}},
		{args: []string{"-io-read-fail", "0.2"}, tc: fault.TransientConfig{ReadFailProb: 0.2, Seed: 1}},
		{args: []string{"-io-write-fail", "1", "-io-seed", "3"}, tc: fault.TransientConfig{WriteFailProb: 1, Seed: 3}},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		faults := FaultFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		fc, tc, err := faults()
		if err != nil || fc != c.fc || tc != c.tc {
			t.Errorf("%v: got %+v, %+v, %v; want %+v, %+v", c.args, fc, tc, err, c.fc, c.tc)
		}
	}
}
