// Package pjs is the public facade of a full reproduction of
// Kettimuthu et al., "Selective Preemption Strategies for Parallel Job
// Scheduling" (ICPP 2002 / IJHPCN): an event-driven simulator for
// preemptive scheduling of rigid parallel jobs with local restart, the
// paper's Selective Suspension (SS) and Tunable Selective Suspension
// (TSS) policies, the Immediate Service (IS) and backfilling baselines,
// calibrated synthetic workloads for the CTC/SDSC/KTH logs, and an
// experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// Quick start:
//
//	trace := pjs.Generate(pjs.CTC(), pjs.GenOptions{Jobs: 5000, Seed: 1})
//	sched, _ := pjs.NewScheduler("tss:2")
//	res := pjs.Simulate(trace, sched, pjs.Options{})
//	sum := pjs.Summarize(res, pjs.All)
//	fmt.Printf("overall slowdown: %.2f\n", sum.Overall.MeanSlowdown)
//
// NewScheduler accepts the specs of the policy table (internal/policy),
// one row per line: the spec form, what the policy does, the argument's
// bound and default, and aliases.
//
//	fcfs          first-come-first-served
//	conservative  conservative backfilling; also cons
//	ns            aggressive (EASY) backfilling, the paper's NS baseline; also easy, aggressive
//	is            Immediate Service (Chiang & Vernon)
//	ss[:SF]       Selective Suspension; SF ≥ 1, default 2
//	tss[:SF]      single-pass Tunable SS with online-adaptive limits (the paper's two-pass TSS is pexp's "SF = 2 Tuned"); SF ≥ 1, default 2
//	ssmig[:SF]    SS under the migratable-restart model (ablation); SF ≥ 1, default 2; also ss-mig
//	gang[:Q]      gang scheduling with a quantum of Q seconds; Q ≥ 1, default 600
//	spec[:F]      speculative backfilling: gamble when estimate ≤ F × hole, kill & requeue on a loss; F > 1, default 5; also specbf
//	depth[:N]     reservation-depth backfilling, N reservations (1 = EASY); N ≥ 1, default 1; also depthbf
//
// The experiment harness's two-pass TSS seeds its limits from an SS
// pre-pass on the identical trace; the NS-seeded variant is the
// ablation-tss-seed experiment's "Tuned(NS)" column. Use pjs.NewTSS for
// explicit control.
package pjs

import (
	"context"
	"fmt"
	"io"

	"pjs/internal/experiment"
	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/metrics"
	"pjs/internal/overhead"
	"pjs/internal/policy"
	"pjs/internal/sched"
	"pjs/internal/sched/ss"
	"pjs/internal/workload"
)

// Re-exported workload types and constructors.
type (
	// Trace is a stream of jobs for one machine.
	Trace = workload.Trace
	// Model is a synthetic workload model.
	Model = workload.Model
	// GenOptions parameterize synthetic generation.
	GenOptions = workload.GenOptions
	// EstimateMode selects accurate or inaccurate user estimates.
	EstimateMode = workload.EstimateMode
)

// Estimate modes.
const (
	EstimateAccurate   = workload.EstimateAccurate
	EstimateInaccurate = workload.EstimateInaccurate
)

// Job is a rigid parallel job.
type Job = job.Job

// NewJob builds a queued job by hand (most callers use Generate or
// ReadSWF instead): estimate is clamped up to run.
func NewJob(id int, submit, run, estimate int64, procs int) *Job {
	return job.New(id, submit, run, estimate, procs)
}

// CTC returns the 430-node Cornell Theory Center workload model.
func CTC() Model { return workload.CTC() }

// SDSC returns the 128-node San Diego Supercomputer Center model.
func SDSC() Model { return workload.SDSC() }

// KTH returns the 100-node Swedish Royal Institute of Technology model.
func KTH() Model { return workload.KTH() }

// ModelByName resolves "CTC", "SDSC" or "KTH".
func ModelByName(name string) (Model, bool) { return workload.ModelByName(name) }

// Generate produces a synthetic trace.
func Generate(m Model, opt GenOptions) *Trace { return workload.Generate(m, opt) }

// ReadSWF parses a Standard Workload Format trace.
func ReadSWF(r io.Reader, name string) (*Trace, error) { return workload.ReadSWF(r, name) }

// WriteSWF emits a trace in Standard Workload Format.
func WriteSWF(w io.Writer, t *Trace) error { return workload.WriteSWF(w, t) }

// Re-exported scheduling types.
type (
	// Scheduler is a scheduling policy.
	Scheduler = sched.Scheduler
	// Options configure a simulation run.
	Options = sched.Options
	// Result is a completed simulation.
	Result = sched.Result
	// Observer receives every engine event (see internal/obs for
	// ready-made sinks: counters, time-series sampler, trace exporter).
	Observer = sched.Observer
	// Summary is the per-category metric set.
	Summary = metrics.Summary
	// Filter selects the estimate-quality subset.
	Filter = metrics.Filter
)

// Metric filters.
const (
	All            = metrics.All
	WellEstimated  = metrics.WellEstimated
	BadlyEstimated = metrics.BadlyEstimated
)

// DiskOverhead returns the paper's Section V-A suspension/restart cost
// model (memory image to local disk at 2 MB/s per processor).
func DiskOverhead() Options { return Options{Overhead: overhead.Disk{}} }

// FaultConfig parameterizes deterministic processor fault injection
// (Options.Faults): exponential fail/repair processes with the given
// mean times, drawn from per-processor seeded streams. The zero value
// disables injection.
type FaultConfig = fault.Config

// TransientFaultConfig parameterizes deterministic transient I/O fault
// injection (Options.Transient): per-processor seeded streams that can
// fail a suspend-image write or restart-image read, triggering bounded
// retry with exponential backoff in virtual time and, past the attempt
// cap, a kill-and-requeue. The zero value disables injection.
type TransientFaultConfig = fault.TransientConfig

// Simulate runs trace t under policy s. It panics on malformed input or
// an unfinishable run; use SimulateChecked to get an error instead.
func Simulate(t *Trace, s Scheduler, opt Options) *Result { return sched.Run(t, s, opt) }

// SimulateChecked runs trace t under policy s, returning an error for
// invalid traces, step-limit exhaustion, or a fault-injection outage
// that leaves a job permanently unfinishable (sched.ErrUnfinishable).
func SimulateChecked(t *Trace, s Scheduler, opt Options) (*Result, error) {
	return sched.RunChecked(t, s, opt)
}

// SimulateContext is SimulateChecked with run-lifecycle controls: ctx
// cancels the run at an event boundary, Options.Checkpoint saves
// resumable watermarks (a canceled-and-checkpointed run returns
// *sched.InterruptedError), and Options.Resume fast-forwards to a
// saved watermark and continues byte-identically to the uninterrupted
// run. See internal/sched's RunContext for the full contract.
func SimulateContext(ctx context.Context, t *Trace, s Scheduler, opt Options) (*Result, error) {
	return sched.RunContext(ctx, t, s, opt)
}

// Summarize computes the paper's metrics from a run.
func Summarize(r *Result, f Filter) *Summary { return metrics.FromResult(r, f) }

// NewScheduler builds a policy from a spec string (see the package
// comment for the grammar).
func NewScheduler(spec string) (Scheduler, error) {
	p, arg, err := policy.Parse(spec)
	if err != nil {
		return nil, fmt.Errorf("pjs: %w", err)
	}
	return p.New(arg), nil
}

// SchedulerSpecs returns the canonical spec of every policy in table
// order: the registry that the determinism and golden suites and
// policy sweeps run.
func SchedulerSpecs() []string {
	specs := make([]string, len(policy.All))
	for i, p := range policy.All {
		specs[i] = p.Spec
	}
	return specs
}

// NewSS returns a plain Selective Suspension scheduler.
func NewSS(sf float64) Scheduler { return ss.New(ss.Config{SF: sf}) }

// NewTSS returns a Tunable Selective Suspension scheduler whose
// per-category preemption-disable limits are 1.5 × the given average
// slowdowns (typically measured from an NS baseline run via
// Summary.SlowdownTable).
func NewTSS(sf float64, avgSlowdowns [16]float64) Scheduler {
	return ss.New(ss.Config{SF: sf, Limits: ss.LimitsFromSlowdowns(avgSlowdowns)})
}

// Experiment harness re-exports.
type (
	// Experiment reproduces one paper table or figure.
	Experiment = experiment.Experiment
	// Runner memoizes experiment simulations.
	Runner = experiment.Runner
	// ExpConfig scales the experiment suite.
	ExpConfig = experiment.Config
)

// Experiments returns the full registry in paper order.
func Experiments() []Experiment { return experiment.All() }

// ExperimentByID resolves a paper table/figure number like "fig7".
func ExperimentByID(id string) (Experiment, bool) { return experiment.ByID(id) }

// NewRunner builds an experiment runner.
func NewRunner(cfg ExpConfig) *Runner { return experiment.NewRunner(cfg) }
