package workload

import (
	"fmt"
	"math"
	"math/rand"

	"pjs/internal/job"
)

// EstimateMode selects how user estimates relate to actual run times.
type EstimateMode int

const (
	// EstimateAccurate sets estimate = run time, the idealized
	// assumption of Section IV.
	EstimateAccurate EstimateMode = iota
	// EstimateInaccurate draws the over-estimation factor from a mixed
	// distribution so that roughly half the jobs are "badly estimated"
	// (estimate > 2× run time), matching the well/badly split the
	// paper studies in Section V.
	EstimateInaccurate
	// EstimateModal rounds the (inaccurately drawn) request up to the
	// small set of round wall-clock values real users pick — 15 min,
	// 30 min, 1 h, 2 h, … — following Tsafrir et al.'s observation that
	// production logs contain only ~20 distinct estimates. Modal
	// estimates create massive ties, which stress backfilling tie-break
	// behaviour in ways smooth distributions cannot.
	EstimateModal
)

// String names the estimate mode.
func (m EstimateMode) String() string {
	switch m {
	case EstimateAccurate:
		return "accurate"
	case EstimateInaccurate:
		return "inaccurate"
	case EstimateModal:
		return "modal"
	}
	return "inaccurate"
}

// modalValues are the canonical round wall-clock requests, in seconds.
var modalValues = []int64{
	5 * 60, 10 * 60, 15 * 60, 30 * 60, 45 * 60,
	3600, 2 * 3600, 3 * 3600, 4 * 3600, 6 * 3600, 8 * 3600,
	12 * 3600, 18 * 3600, 24 * 3600, 36 * 3600, 48 * 3600,
}

// roundUpModal returns the smallest modal value ≥ v (or v itself beyond
// the largest mode).
func roundUpModal(v int64) int64 {
	for _, m := range modalValues {
		if m >= v {
			return m
		}
	}
	return v
}

// GenOptions parameterize synthetic trace generation.
type GenOptions struct {
	// Jobs is the number of jobs to generate.
	Jobs int
	// Seed makes the trace deterministic.
	Seed int64
	// Estimates selects the estimate model.
	Estimates EstimateMode
	// WellFraction is the fraction of well-estimated jobs under
	// EstimateInaccurate; 0 means the default 0.45 (real logs show a
	// minority of jobs with estimates within 2× of the run time).
	WellFraction float64
	// BadFactorMax bounds the log-uniform over-estimation factor of
	// badly estimated jobs; 0 means the default 40.
	BadFactorMax float64
}

// memory bounds of the Section V-A overhead model.
const (
	memLo = 100 << 20  // 100 MB
	memHi = 1024 << 20 // 1 GB
)

// Generate produces a synthetic trace from the model. Jobs are drawn
// i.i.d. from the category mix; run times and widths are log-uniform
// inside the category band; arrivals follow a Poisson process (optionally
// modulated by a diurnal cycle) whose rate is calibrated so the trace
// offers Model.OfferedLoad of the machine's capacity. Every job gets a
// per-processor memory size uniform in [100 MB, 1 GB] for the overhead
// model. The jobs share one slab: two allocations for all of them.
func Generate(m Model, opt GenOptions) *Trace {
	if opt.Jobs <= 0 {
		panic("workload: Generate needs a positive job count")
	}
	if m.Procs < 1 {
		panic(fmt.Sprintf("workload: model %q has no processors", m.Name))
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// Flatten and normalize the category mix.
	type cell struct {
		l job.Length
		w job.Width
		p float64
	}
	var cells []cell
	total := 0.0
	for l := job.Length(0); l < job.NumLengths; l++ {
		for w := job.Width(0); w < job.NumWidths; w++ {
			p := m.Mix[l][w]
			if p < 0 {
				panic(fmt.Sprintf("workload: model %q has negative mix at %v/%v", m.Name, l, w))
			}
			if p > 0 {
				cells = append(cells, cell{l, w, p})
				total += p
			}
		}
	}
	if total == 0 {
		panic(fmt.Sprintf("workload: model %q has an all-zero mix", m.Name))
	}

	// Expected work per job under the mix, for arrival-rate calibration.
	// For a log-uniform variable on [lo,hi], E = (hi-lo)/ln(hi/lo).
	expWork := 0.0
	for _, c := range cells {
		rlo, rhi := m.classRunRange(c.l)
		wlo, whi := m.classWidthRange(c.w)
		expWork += c.p / total * logUniformMean(float64(rlo), float64(rhi)) *
			logUniformMean(float64(wlo), float64(whi))
	}
	// offered = expWork / (interarrival * Procs)  =>  interarrival:
	meanGap := expWork / (m.OfferedLoad * float64(m.Procs))

	jobs := make([]*job.Job, opt.Jobs)
	slab := make([]job.Job, opt.Jobs)
	now := 0.0
	for i := 0; i < opt.Jobs; i++ {
		// Pick a category.
		x := rng.Float64() * total
		var c cell
		for _, cand := range cells {
			if x < cand.p {
				c = cand
				break
			}
			x -= cand.p
			c = cand // numeric slop lands in the last cell
		}
		rlo, rhi := m.classRunRange(c.l)
		wlo, whi := m.classWidthRange(c.w)
		run := int64(logUniform(rng, float64(rlo), float64(rhi)))
		procs := int(logUniform(rng, float64(wlo), float64(whi)) + 0.5)
		run = clamp64(run, rlo, rhi)
		procs = clampInt(procs, wlo, whi)

		est := estimateFor(rng, run, opt)
		j := &slab[i]
		j.Init(i+1, int64(now), run, est, procs)
		j.MemPerProc = memLo + int64(rng.Float64()*float64(memHi-memLo))
		jobs[i] = j

		gap := rng.ExpFloat64() * meanGap
		if m.DailyCycle > 0 {
			// Thin the process: stretch gaps when the diurnal rate is
			// low. rate(t) = 1 + A*sin(2πt/day).
			phase := 2 * math.Pi * math.Mod(now, 86400) / 86400
			rate := 1 + m.DailyCycle*math.Sin(phase)
			if rate < 0.05 {
				rate = 0.05
			}
			gap /= rate
		}
		now += gap
	}
	t := &Trace{Name: m.Name, Procs: m.Procs, Jobs: jobs}
	t.SortBySubmit()
	return t
}

// estimateFor draws a user estimate for a job with the given run time.
func estimateFor(rng *rand.Rand, run int64, opt GenOptions) int64 {
	if opt.Estimates == EstimateAccurate {
		return run
	}
	if opt.Estimates == EstimateModal {
		// Draw the inaccurate request, then snap it to the round
		// values users actually type.
		raw := estimateFor(rng, run, GenOptions{
			Estimates:    EstimateInaccurate,
			WellFraction: opt.WellFraction,
			BadFactorMax: opt.BadFactorMax,
		})
		return roundUpModal(raw)
	}
	well := opt.WellFraction
	if well == 0 {
		well = 0.45
	}
	badMax := opt.BadFactorMax
	if badMax == 0 {
		badMax = 40
	}
	isWell := rng.Float64() < well
	var f float64
	if isWell {
		f = 1 + rng.Float64() // uniform [1,2): well estimated
	} else {
		f = logUniform(rng, 2, badMax) // badly estimated
	}
	est := int64(float64(run) * f)
	if est < run {
		est = run
	}
	// Users request round wall-clock limits; round up to a minute —
	// but don't let the rounding push an intentionally well-estimated
	// short job over the 2× threshold of the Section V split.
	if rem := est % 60; rem != 0 {
		est += 60 - rem
	}
	if isWell && est > 2*run {
		est = 2 * run
	}
	return est
}

// logUniform samples log-uniformly from [lo, hi].
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}

// logUniformMean returns the mean of a log-uniform variable on [lo, hi].
func logUniformMean(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return (hi - lo) / math.Log(hi/lo)
}

func clamp64(x, lo, hi int64) int64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
