package workload

import (
	"math"
	"testing"
)

// Round trip: fitting a model to a trace generated from known parameters
// must recover those parameters.
func TestFitModelRoundTrip(t *testing.T) {
	orig := SDSC()
	tr := Generate(orig, GenOptions{Jobs: 20000, Seed: 31})
	fit := FitModel(tr)

	if fit.Procs != orig.Procs {
		t.Errorf("Procs = %d, want %d", fit.Procs, orig.Procs)
	}
	for l := 0; l < 4; l++ {
		for w := 0; w < 4; w++ {
			if math.Abs(fit.Mix[l][w]-orig.Mix[l][w]) > 0.015 {
				t.Errorf("mix[%d][%d] = %.3f, want %.3f", l, w, fit.Mix[l][w], orig.Mix[l][w])
			}
		}
	}
	if math.Abs(fit.OfferedLoad-orig.OfferedLoad)/orig.OfferedLoad > 0.15 {
		t.Errorf("offered load = %.3f, want ~%.3f", fit.OfferedLoad, orig.OfferedLoad)
	}
	if fit.MaxWidth > orig.Procs || fit.MaxWidth < 33 {
		t.Errorf("MaxWidth = %d out of range", fit.MaxWidth)
	}
	if math.Abs(fit.DailyCycle-orig.DailyCycle) > 0.15 {
		t.Errorf("DailyCycle = %.3f, want ~%.3f", fit.DailyCycle, orig.DailyCycle)
	}

	// The fitted model must itself generate a valid, similar trace.
	tr2 := Generate(fit, GenOptions{Jobs: 5000, Seed: 32})
	if err := tr2.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr2.OfferedLoad()-tr.OfferedLoad())/tr.OfferedLoad() > 0.25 {
		t.Errorf("refitted offered load drifted: %.3f vs %.3f", tr2.OfferedLoad(), tr.OfferedLoad())
	}
}

func TestFitModelEmptyTrace(t *testing.T) {
	m := FitModel(&Trace{Name: "x", Procs: 8})
	if m.Procs != 8 || m.OfferedLoad != 0 {
		t.Errorf("empty fit: %+v", m)
	}
}

func TestFitModelFlatArrivals(t *testing.T) {
	m := CTC()
	m.DailyCycle = 0
	tr := Generate(m, GenOptions{Jobs: 20000, Seed: 33})
	fit := FitModel(tr)
	if fit.DailyCycle > 0.15 {
		t.Errorf("flat arrivals fitted amplitude %.3f", fit.DailyCycle)
	}
}

func TestFitModelCapsRunBand(t *testing.T) {
	// A log with no very-long jobs still yields a usable VL band.
	m := CTC()
	tr := Generate(m, GenOptions{Jobs: 3000, Seed: 34})
	short := &Trace{Name: tr.Name, Procs: tr.Procs}
	for _, j := range tr.Jobs {
		if j.RunTime <= 3600 {
			short.Jobs = append(short.Jobs, j)
		}
	}
	fit := FitModel(short)
	lo, hi := fit.classRunRange(3) // VeryLong
	if hi <= lo {
		t.Errorf("degenerate VL band [%d,%d]", lo, hi)
	}
}
