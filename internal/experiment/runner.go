// Package experiment reproduces every table and figure of the paper's
// evaluation. Each experiment is registered under the paper's own
// numbering (table2, fig7, …) and produces a renderable result; the
// Runner memoizes traces and simulation runs so that experiments sharing
// a configuration (e.g. Figures 7 and 8) execute each simulation once.
package experiment

import (
	"fmt"

	"pjs/internal/check"
	"pjs/internal/fault"
	"pjs/internal/metrics"
	"pjs/internal/obs"
	"pjs/internal/overhead"
	"pjs/internal/policy"
	"pjs/internal/sched"
	"pjs/internal/sched/ss"
	"pjs/internal/workload"
)

// Config scales the experiment suite. The defaults reproduce the
// paper's shapes in seconds-to-minutes of CPU time; raising Jobs
// tightens the statistics.
type Config struct {
	// Jobs per generated trace (default 8000).
	Jobs int
	// Seed for trace generation (default 1).
	Seed int64
	// MaxSteps bounds each simulation (default 200M events).
	MaxSteps int64
	// Verify audits every simulation and replays it through the
	// invariant checker, panicking on any violation. Slower; used by
	// `pexp -verify` and the test suite.
	Verify bool
	// Counters, when non-nil, observes every simulation the runner
	// executes, keyed per scheme label. Because runs are memoized, a
	// run's counts land on the first experiment that actually executes
	// it; later experiments recalling the memoized result add nothing
	// — and a run recalled from the MemoDir disk cache adds nothing
	// either. Replicate gives each seed's runner a registry of its own
	// and merges them into this one in seed order.
	Counters *obs.Registry
	// Faults enables deterministic processor fault injection for every
	// simulation the runner executes (the zero value disables it). Part
	// of the memo key: results cached under one fault configuration are
	// never recalled for another.
	Faults fault.Config
	// Transient enables deterministic transient suspend/restart I/O
	// fault injection for every simulation (the zero value disables
	// it). Also part of the memo key.
	Transient fault.TransientConfig
	// MemoDir, when set, persists each simulation result as a
	// checksummed memo file (memo.go) so an interrupted sweep resumes
	// without recomputing finished runs. Corrupt, truncated or foreign
	// entries fail validation and are silently regenerated.
	MemoDir string
	// Warnf receives non-fatal diagnostics (e.g. a memo save failure);
	// nil discards them.
	Warnf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Jobs == 0 {
		c.Jobs = 8000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 200_000_000
	}
	return c
}

// traceKey identifies a workload configuration. Load is stored in
// percent so the key is hashable without float equality traps.
type traceKey struct {
	model   string
	est     workload.EstimateMode
	loadPct int
}

// runKey identifies a simulation run.
type runKey struct {
	tk       traceKey
	scheme   string
	overhead bool
}

type sumKey struct {
	rk     runKey
	filter metrics.Filter
}

// Runner executes and memoizes simulations for the experiment suite.
type Runner struct {
	cfg       Config
	traces    map[traceKey]*workload.Trace
	results   map[runKey]*sched.Result
	summaries map[sumKey]*metrics.Summary
	limits    map[runKey]*ss.StaticLimits // TSS limits by seed run
}

// NewRunner returns a Runner with the given configuration.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		cfg:       cfg.withDefaults(),
		traces:    make(map[traceKey]*workload.Trace),
		results:   make(map[runKey]*sched.Result),
		summaries: make(map[sumKey]*metrics.Summary),
		limits:    make(map[runKey]*ss.StaticLimits),
	}
}

// Config returns the effective configuration.
func (r *Runner) Config() Config { return r.cfg }

// Trace returns the (memoized) workload for a model, estimate mode and
// load factor in percent (100 = the original trace).
func (r *Runner) Trace(model string, est workload.EstimateMode, loadPct int) *workload.Trace {
	tk := traceKey{model, est, loadPct}
	if t, ok := r.traces[tk]; ok {
		return t
	}
	m, ok := workload.ModelByName(model)
	if !ok {
		panic(fmt.Sprintf("experiment: unknown model %q", model))
	}
	base := traceKey{model, est, 100}
	t, ok := r.traces[base]
	if !ok {
		t = workload.Generate(m, workload.GenOptions{
			Jobs: r.cfg.Jobs, Seed: r.cfg.Seed, Estimates: est,
		})
		r.traces[base] = t
	}
	if loadPct != 100 {
		t = t.ScaleLoad(float64(loadPct) / 100)
		r.traces[tk] = t
	}
	return t
}

// Scheme names a scheduling policy as labelled in the paper's figures.
type Scheme struct {
	// Label as it appears in the figures ("No Suspension", "IS",
	// "SF = 2", "SF = 2 Tuned", …).
	Label string
	make  func(r *Runner, tk traceKey) sched.Scheduler
}

// tableScheme is row p of the policy table with argument arg, under
// the row's figure label.
func tableScheme(p *policy.Policy, arg float64) Scheme {
	return Scheme{Label: p.Label(arg), make: func(*Runner, traceKey) sched.Scheduler { return p.New(arg) }}
}

// The single-policy schemes: each is its row of the policy table, with
// the given argument, under the row's figure label. TSSAdaptive is the
// single-pass "tss" row (an ablation of the two-pass TSS), SSMig prices
// the local-restart constraint, Gang takes its quantum in seconds and
// DepthBF spans EASY (1) to near-conservative (the paper's [16]).
func NS() Scheme                    { return tableScheme(policy.NS, 0) }
func IS() Scheme                    { return tableScheme(policy.IS, 0) }
func FCFS() Scheme                  { return tableScheme(policy.FCFS, 0) }
func Conservative() Scheme          { return tableScheme(policy.Conservative, 0) }
func SS(sf float64) Scheme          { return tableScheme(policy.SS, sf) }
func TSSAdaptive(sf float64) Scheme { return tableScheme(policy.TSS, sf) }
func SSMig(sf float64) Scheme       { return tableScheme(policy.SSMig, sf) }
func Gang(quantum int64) Scheme     { return tableScheme(policy.Gang, float64(quantum)) }
func DepthBF(depth int) Scheme      { return tableScheme(policy.DepthBF, float64(depth)) }

// ssScheme is an SS configuration that only the experiments use. With
// a seed scheme (not the zero Scheme), its limits come from a pre-pass
// of seed on the same trace (limitsFor).
func ssScheme(label string, cfg ss.Config, seed Scheme) Scheme {
	return Scheme{Label: label, make: func(r *Runner, tk traceKey) sched.Scheduler {
		c := cfg
		if seed.make != nil {
			c.Limits = r.limitsFor(tk, seed)
		}
		return ss.New(c)
	}}
}

// TSS is Tunable Selective Suspension; its per-category limits are
// 1.5 × the category average slowdowns measured under plain SS with the
// same suspension factor on the very same trace. The paper says only
// "1.5 times the average slowdown of the category the job belongs to";
// seeding from the scheme's own averages (rather than the NS baseline)
// reproduces its Figures 13/17 — limits seeded from NS averages
// over-protect long runners and blow up short-category worst cases, see
// the ablation-tss-seed experiment.
func TSS(sf float64) Scheme {
	return ssScheme(fmt.Sprintf("SF = %g Tuned", sf), ss.Config{SF: sf}, SS(sf))
}

// TSSFromNS is the NS-seeded limit variant kept for the ablation.
func TSSFromNS(sf float64) Scheme {
	return ssScheme(fmt.Sprintf("SF = %g Tuned(NS)", sf), ss.Config{SF: sf}, NS())
}

// SSOnce is SS with at most one suspension per job — the related-work
// mechanism (Chiang et al.) the paper contrasts with SF rate control.
func SSOnce(sf float64) Scheme {
	return ssScheme(fmt.Sprintf("SF = %g Once", sf), ss.Config{SF: sf, MaxSuspensions: 1}, Scheme{})
}

// SSNoWidthRule is SS without the half-width fairness rule (ablation of
// the Section IV-B design choice).
func SSNoWidthRule(sf float64) Scheme {
	return ssScheme(fmt.Sprintf("SF = %g NoWidthRule", sf), ss.Config{SF: sf, DisableHalfWidthRule: true}, Scheme{})
}

// limitsFor computes (and memoizes) a TSS limit table from a pre-pass
// of the given seed scheme on the given trace.
func (r *Runner) limitsFor(tk traceKey, seed Scheme) *ss.StaticLimits {
	rk := runKey{tk: tk, scheme: seed.Label}
	if l, ok := r.limits[rk]; ok {
		return l
	}
	sum := metrics.FromResult(r.resultFor(rk, seed), metrics.All)
	l := ss.LimitsFromSlowdowns(sum.SlowdownTable())
	r.limits[rk] = l
	return l
}

// Result runs (or recalls) a simulation.
func (r *Runner) Result(model string, est workload.EstimateMode, loadPct int, sc Scheme, oh bool) *sched.Result {
	tk := traceKey{model, est, loadPct}
	return r.resultFor(runKey{tk: tk, scheme: sc.Label, overhead: oh}, sc)
}

func (r *Runner) resultFor(rk runKey, sc Scheme) *sched.Result {
	if res, ok := r.results[rk]; ok {
		return res
	}
	if r.cfg.MemoDir != "" {
		// A disk-memoized run was verified (if Verify) before it was
		// saved; recalling it skips the checker along with the
		// simulation.
		if res, ok := r.loadMemo(r.memoKey(rk)); ok {
			r.results[rk] = res
			return res
		}
	}
	opt := sched.Options{Faults: r.cfg.Faults, Transient: r.cfg.Transient}
	if rk.overhead {
		opt.Overhead = overhead.Disk{}
	}
	res, err := r.run(r.Trace(rk.tk.model, rk.tk.est, rk.tk.loadPct), sc.make(r, rk.tk), rk.scheme, opt)
	if err != nil {
		panic(err)
	}
	r.results[rk] = res
	if r.cfg.MemoDir != "" {
		r.saveMemo(r.memoKey(rk), res)
	}
	return res
}

// run simulates s on trace t under opt, observed under key when
// counting. Under Verify it replays the audit log through the
// invariant checker and panics on a violation.
func (r *Runner) run(t *workload.Trace, s sched.Scheduler, key string, opt sched.Options) (*sched.Result, error) {
	opt.MaxSteps, opt.Audit = r.cfg.MaxSteps, r.cfg.Verify
	if r.cfg.Counters != nil {
		opt.Observer = r.cfg.Counters.For(key, t.Procs)
	}
	res, err := sched.RunChecked(t, s, opt)
	if err != nil || !r.cfg.Verify {
		return res, err
	}
	if err := check.Check(res.Audit, check.OptionsFor(s, opt)); err != nil {
		panic(fmt.Sprintf("experiment: %s on %s: %v", key, t.Name, err))
	}
	res.Audit = nil // free the memory once checked
	return res, nil
}

// Summary runs a simulation and summarizes it under a filter.
func (r *Runner) Summary(model string, est workload.EstimateMode, loadPct int, sc Scheme, oh bool, f metrics.Filter) *metrics.Summary {
	tk := traceKey{model, est, loadPct}
	rk := runKey{tk: tk, scheme: sc.Label, overhead: oh}
	sk := sumKey{rk: rk, filter: f}
	if s, ok := r.summaries[sk]; ok {
		return s
	}
	s := metrics.FromResult(r.resultFor(rk, sc), f)
	r.summaries[sk] = s
	return s
}
