package workload

import (
	"math"
	"testing"

	"pjs/internal/job"
)

func TestHourHistogramSumsToOne(t *testing.T) {
	tr := Generate(CTC(), GenOptions{Jobs: 5000, Seed: 8})
	h := tr.HourHistogram()
	sum := 0.0
	for _, v := range h {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("histogram sums to %v", sum)
	}
}

func TestHourHistogramShowsDiurnalCycle(t *testing.T) {
	m := CTC()
	m.DailyCycle = 0.6
	tr := Generate(m, GenOptions{Jobs: 30000, Seed: 8})
	h := tr.HourHistogram()
	min, max := h[0], h[0]
	for _, v := range h[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max < 1.3*min {
		t.Errorf("no visible diurnal cycle: min=%v max=%v", min, max)
	}
	// And with the cycle off, arrivals are nearly flat.
	m.DailyCycle = 0
	flat := Generate(m, GenOptions{Jobs: 30000, Seed: 8}).HourHistogram()
	fmin, fmax := flat[0], flat[0]
	for _, v := range flat[1:] {
		if v < fmin {
			fmin = v
		}
		if v > fmax {
			fmax = v
		}
	}
	if fmax > 1.35*fmin {
		t.Errorf("flat arrivals look diurnal: min=%v max=%v", fmin, fmax)
	}
}

func TestWorkByCategory(t *testing.T) {
	tr := tinyTrace()
	w := tr.WorkByCategory()
	sum := 0.0
	for _, row := range w {
		for _, v := range row {
			sum += v
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("work shares sum to %v", sum)
	}
	// Job 2 (4000s × 10 procs) dominates the tiny trace.
	if w[job.Long][job.Wide] < 0.3 {
		t.Errorf("L-W work share = %v, want dominant", w[job.Long][job.Wide])
	}
	if (&Trace{Procs: 4}).WorkByCategory() != [4][4]float64{} {
		t.Error("empty trace should be all zeros")
	}
}

func TestHourHistogramEmpty(t *testing.T) {
	tr := &Trace{Procs: 4}
	if tr.HourHistogram() != [24]float64{} {
		t.Error("empty trace histogram should be zeros")
	}
}
