// Command psim runs one parallel-job-scheduling simulation and prints
// the paper's per-category metrics.
//
// Usage:
//
//	psim -model SDSC -jobs 5000 -sched tss:2
//	psim -trace log.swf -sched ns -filter well
//	psim -model CTC -sched ss:1.5 -estimates inaccurate -load 1.3 -overhead -verify
//	psim -sched ns -mtbf 500 -mttr 2 -fault-seed 7   # processor fault injection
//	psim -sched ss:2 -overhead -io-write-fail 0.2 -io-read-fail 0.2  # transient I/O faults
//	psim -sched ss:2 -perf                           # hot-path profile on stderr
//	psim -model SDSC -jobs 50000 -ckpt-every 100000  # crash-safe checkpointing
//	psim -resume psim.ckpt                           # continue an interrupted run
//
// With -ckpt-every N a resumable checkpoint is written atomically every
// N engine events, and a SIGINT (Ctrl-C) or an expired -max-wall budget
// saves a final checkpoint and exits with code 3 instead of discarding
// the run. -resume replays deterministically to the saved watermark
// (verifying it — a corrupt, stale or foreign checkpoint is rejected,
// never silently resumed) and produces output byte-identical to the
// uninterrupted run.
//
// Exit codes: 0 success, 1 run or input failure, 2 flag error,
// 3 interrupted with a checkpoint saved.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"

	"pjs"
	"pjs/internal/check"
	"pjs/internal/ckpt"
	"pjs/internal/cli"
	"pjs/internal/gantt"
	"pjs/internal/job"
	"pjs/internal/metrics"
	"pjs/internal/obs"
	"pjs/internal/perf"
	"pjs/internal/report"
	"pjs/internal/sched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: both streams are latched so a lost
// stdout write surfaces as a non-zero exit code (INV-errwrite).
func run(args []string, stdoutW, stderrW io.Writer) int {
	stdout, stderr := cli.Wrap(stdoutW), cli.Wrap(stderrW)
	return cli.Exit("psim", psim(args, stdout, stderr), stdout, stderr)
}

// psim parses args, executes one simulation, writes reports to stdout
// and diagnostics to stderr, and returns the process exit code.
// User-input errors (bad flags, bad traces, unknown schedulers,
// unfinishable fault configurations) come back as a friendly message
// and a non-zero code, never a panic.
func psim(args []string, stdout, stderr *cli.W) int {
	fs := flag.NewFlagSet("psim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		model     = fs.String("model", "SDSC", "synthetic workload model: CTC, SDSC or KTH")
		traceFile = fs.String("trace", "", "SWF trace file (overrides -model)")
		jobs      = fs.Int("jobs", 5000, "jobs to generate (synthetic only)")
		seed      = fs.Int64("seed", 1, "generator seed")
		schedSpec = fs.String("sched", "tss:2", "scheduler: fcfs|conservative|ns|is|ss:SF|tss:SF")
		estimates = fs.String("estimates", "accurate", "user estimates: accurate or inaccurate")
		loadF     = fs.Float64("load", 1.0, "load factor (arrival times divided by this)")
		oh        = fs.Bool("overhead", false, "model suspension/restart overhead (Section V-A)")
		verify    = fs.Bool("verify", false, "audit the run and check machine invariants")
		ganttW    = fs.Int("gantt", 0, "draw an ASCII Gantt chart this many columns wide")
		dump      = fs.String("dump", "", "write per-job results as CSV to this file")
		contig    = fs.Bool("contiguous", false, "best-fit contiguous processor placement")
		filter    = fs.String("filter", "all", "metric subset: all, well or bad")
		coarse    = fs.Bool("coarse", false, "report the 4-way load-variation categories")
		csv       = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		traceOut  = fs.String("trace-out", "", "write a Perfetto/Chrome trace-event JSON file of the run")
		tsOut     = fs.String("timeseries-out", "", "write a utilization/queue time series as CSV to this file")
		counters  = fs.Bool("counters", false, "print engine event counters after the run")
		mtbf      = fs.Float64("mtbf", 0, "per-processor mean time between failures in hours (0 disables fault injection)")
		mttr      = fs.Float64("mttr", 0, "mean time to repair in hours (with -mtbf; 0 means failures are permanent)")
		faultSeed = fs.Int64("fault-seed", 1, "fault-injection seed (with -mtbf)")
		ioWrite   = fs.Float64("io-write-fail", 0, "probability a suspend-image write fails transiently (0 disables)")
		ioRead    = fs.Float64("io-read-fail", 0, "probability a restart-image read fails transiently (0 disables)")
		ioSeed    = fs.Int64("io-seed", 1, "transient I/O fault stream seed")
		ioMaxAtt  = fs.Int("io-max-attempts", 0, "I/O attempts per operation before kill-and-requeue (0 = default 4)")
		ioBase    = fs.Int64("io-backoff-base", 0, "first I/O retry backoff in seconds of virtual time (0 = default 30)")
		ioCap     = fs.Int64("io-backoff-cap", 0, "I/O retry backoff ceiling in seconds (0 = default 480)")
		ioWindow  = fs.Int64("io-health-window", 0, "I/O health window in seconds (0 = default 3600)")
		ioThresh  = fs.Int("io-health-thresh", 0, "I/O failures within the window that degrade a processor (0 = default 3)")
		ckptEvery = fs.Int64("ckpt-every", 0, "write a resumable checkpoint every N engine events (0 disables)")
		ckptDir   = fs.String("ckpt-dir", ".", "directory for the checkpoint file (with -ckpt-every)")
		resume    = fs.String("resume", "", "resume from this checkpoint file (workload/scheduler/options come from it)")
		maxWall   = fs.Duration("max-wall", 0, "wall-clock budget; an exceeded budget checkpoints (if enabled) and exits 3")
		perfFlag  = fs.Bool("perf", false, "profile the scheduler hot path and print a per-phase summary to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		stderr.Println("psim:", err)
		return 1
	}

	// The run's identity: workload provenance, scheduler spec and
	// simulation-affecting options — either from the flags (fresh run)
	// or from a checkpoint (resume). Everything downstream derives from
	// these three, so a resumed run is indistinguishable from a fresh
	// one past this block.
	var (
		spec       *ckpt.WorkloadSpec
		schedName  string
		optSpec    ckpt.OptSpec
		resumeSpec *sched.ResumeSpec
		ckptPath   string
	)
	if *resume != "" {
		c, err := ckpt.Load(*resume)
		if err != nil {
			return fail(err)
		}
		spec, schedName, optSpec = &c.Workload, c.Sched, c.Opt
		resumeSpec = &sched.ResumeSpec{Events: c.Events, AuditHash: c.AuditHash, AuditEntries: c.AuditEntries}
		ckptPath = *resume
		stderr.Printf("psim: resuming %s under %s from event %d (t=%d)\n",
			spec, schedName, c.Events, c.Now)
	} else {
		if *mtbf < 0 || *mttr < 0 {
			return fail(fmt.Errorf("-mtbf and -mttr must be ≥ 0 hours, got %g/%g", *mtbf, *mttr))
		}
		if *ioWrite < 0 || *ioWrite > 1 || *ioRead < 0 || *ioRead > 1 {
			return fail(fmt.Errorf("-io-write-fail and -io-read-fail must be in [0,1], got %g/%g", *ioWrite, *ioRead))
		}
		if *ioMaxAtt < 0 || *ioBase < 0 || *ioCap < 0 || *ioWindow < 0 || *ioThresh < 0 {
			return fail(fmt.Errorf("transient I/O flags must be ≥ 0"))
		}
		spec = &ckpt.WorkloadSpec{Kind: ckpt.KindSynthetic, Model: *model, Jobs: *jobs,
			Seed: *seed, Estimates: *estimates, Load: *loadF}
		if *traceFile != "" {
			spec = &ckpt.WorkloadSpec{Kind: ckpt.KindSWF, File: *traceFile,
				Estimates: *estimates, Load: *loadF}
		}
		schedName = *schedSpec
		optSpec = ckpt.OptSpec{
			Overhead:       *oh,
			Contiguous:     *contig,
			MTBF:           int64(*mtbf * 3600),
			MTTR:           int64(*mttr * 3600),
			FaultSeed:      *faultSeed,
			IOWriteFail:    *ioWrite,
			IOReadFail:     *ioRead,
			IOMaxAttempts:  *ioMaxAtt,
			IOBackoffBase:  *ioBase,
			IOBackoffCap:   *ioCap,
			IOHealthWindow: *ioWindow,
			IOHealthThresh: *ioThresh,
		}
		if *ioWrite > 0 || *ioRead > 0 {
			optSpec.IOSeed = *ioSeed
		}
		if *ckptEvery > 0 {
			if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
				return fail(err)
			}
			ckptPath = filepath.Join(*ckptDir, "psim.ckpt")
		}
	}

	// Build recomputes (and on resume verifies) the SWF fingerprint, so
	// it must run before the first checkpoint save captures the spec.
	trace, err := spec.Build()
	if err != nil {
		return fail(err)
	}
	s, err := pjs.NewScheduler(schedName)
	if err != nil {
		return fail(err)
	}
	var f metrics.Filter
	switch *filter {
	case "all":
		f = metrics.All
	case "well":
		f = metrics.WellEstimated
	case "bad", "badly":
		f = metrics.BadlyEstimated
	default:
		return fail(fmt.Errorf("unknown -filter %q", *filter))
	}

	opt := optSpec.Options()
	opt.Audit = *verify || *ganttW > 0
	opt.Resume = resumeSpec
	var lastSaveErr error
	if ckptPath != "" {
		path := ckptPath
		saveWarned := false
		opt.Checkpoint = &sched.CheckpointConfig{
			Every: *ckptEvery,
			Save: func(snap sched.Snapshot) error {
				c := &ckpt.Checkpoint{Workload: *spec, Sched: schedName, Opt: optSpec,
					Events: snap.Events, Now: snap.Now,
					AuditHash: snap.AuditHash, AuditEntries: snap.AuditEntries}
				// A failed save must not abort an otherwise healthy run:
				// warn once, remember the error and keep simulating. Only
				// the interrupt path, which depends on the checkpoint being
				// on disk, turns a persistent failure into a hard error.
				lastSaveErr = c.Save(path)
				if lastSaveErr != nil && !saveWarned {
					saveWarned = true
					stderr.Printf("psim: warning: checkpoint save failed, continuing without: %v\n", lastSaveErr)
				}
				return nil
			},
		}
	}
	var (
		traceB  *obs.TraceBuilder
		sampler *obs.Sampler
		counts  *obs.Counters
	)
	if *traceOut != "" {
		traceB = obs.NewTraceBuilder(trace.Procs)
	}
	if *tsOut != "" {
		sampler = obs.NewSampler(trace.Procs)
	}
	if *counters {
		counts = obs.NewCounters(s.Name(), trace.Procs)
	}
	// Collect non-nil sinks explicitly: a typed-nil *TraceBuilder boxed
	// into the Observer interface would not be interface-nil.
	var sinks []pjs.Observer
	if traceB != nil {
		sinks = append(sinks, traceB)
	}
	if sampler != nil {
		sinks = append(sinks, sampler)
	}
	if counts != nil {
		sinks = append(sinks, counts)
	}
	if len(sinks) > 0 {
		opt.Observer = obs.NewFanOut(sinks...)
	}

	ctx := context.Background()
	if opt.Checkpoint != nil {
		// A SIGINT checkpoints and exits cleanly instead of killing the
		// run; only worth intercepting when there is somewhere to save.
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt)
		defer stop()
	}
	if *maxWall > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *maxWall)
		defer cancel()
	}
	// Hot-path profiling writes to stderr only: stdout stays the
	// deterministic report stream, byte-identical with or without -perf.
	var perfClock perf.Clock
	var perfStart int64
	if *perfFlag {
		opt.Probe = perf.NewProbe(nil)
		perfClock = perf.Monotonic()
		perfStart = perfClock()
	}
	res, err := pjs.SimulateContext(ctx, trace, s, opt)
	if err != nil {
		var ie *sched.InterruptedError
		if errors.As(err, &ie) {
			if lastSaveErr != nil {
				return fail(fmt.Errorf("interrupted after %d events but the final checkpoint save failed: %v",
					ie.Snapshot.Events, lastSaveErr))
			}
			stderr.Printf("psim: interrupted after %d events at t=%d; checkpoint saved\n",
				ie.Snapshot.Events, ie.Snapshot.Now)
			stderr.Printf("psim: resume with: psim -resume %s\n", ckptPath)
			return 3
		}
		return fail(err)
	}
	if *perfFlag {
		elapsed := perfClock() - perfStart
		stderr.Printf("psim: perf summary (%s on %s)\n", s.Name(), trace.Name)
		if werr := opt.Probe.Snapshot().WriteSummary(stderr, elapsed, res.Events); werr != nil {
			return fail(werr)
		}
	}
	if *verify {
		// Transient read retries pad run segments with backoff time, so
		// exact work conservation only holds without them.
		zeroOH := !optSpec.Overhead && optSpec.IOWriteFail == 0 && optSpec.IOReadFail == 0
		if err := check.Check(res.Audit, check.Options{ZeroOverhead: zeroOH}); err != nil {
			return fail(fmt.Errorf("invariant check failed: %v", err))
		}
		occ, _ := res.UtilizationIntegral()
		stdout.Printf("invariants: ok (audit occupancy=%.1f%%)\n", 100*occ)
	}
	sum := pjs.Summarize(res, f)

	estShown := spec.Estimates
	if estShown == "" {
		estShown = "accurate"
	}
	loadShown := spec.Load
	if loadShown == 0 {
		loadShown = 1
	}
	stdout.Printf("trace=%s machine=%d procs jobs=%d scheduler=%s estimates=%s load=%.2g\n",
		trace.Name, trace.Procs, len(trace.Jobs), s.Name(), estShown, loadShown)
	stdout.Printf("makespan=%ds utilization=%.1f%% suspensions=%d\n",
		res.Makespan(), 100*res.Utilization, res.Suspensions)
	resubmits := 0
	for _, j := range res.Jobs {
		resubmits += j.Resubmits
	}
	if optSpec.MTBF > 0 {
		stdout.Printf("faults: failures=%d repairs=%d fail-kills=%d images-lost=%d resubmissions=%d lost-work=%ds\n",
			res.Failures, res.Repairs, res.FailKills, res.ImagesLost, resubmits, res.LostWorkSeconds)
	}
	if optSpec.IOWriteFail > 0 || optSpec.IOReadFail > 0 {
		stdout.Printf("transient-io: retries=%d exhausted=%d degradations=%d restores=%d resubmissions=%d lost-work=%ds\n",
			res.IORetries, res.IOExhaustions, res.IODegradations, res.IORestores, resubmits, res.LostWorkSeconds)
	}
	stdout.Printf("overall: mean slowdown=%.2f worst slowdown=%.1f mean turnaround=%.0fs (filter=%s, %d jobs)\n\n",
		sum.Overall.MeanSlowdown, sum.Overall.WorstSlowdown, sum.Overall.MeanTurnaround,
		f, sum.Overall.Count)

	t := summaryTable(sum, *coarse)
	if *csv {
		stdout.Print(t.CSV())
	} else {
		stdout.Print(t.Render())
	}
	if *ganttW > 0 {
		stdout.Println()
		stdout.Print(gantt.Render(res.Audit, gantt.Options{Width: *ganttW}))
	}
	if *dump != "" {
		err := ckpt.WriteAtomic(*dump, func(w io.Writer) error {
			return metrics.WriteJobsCSV(w, res.Jobs)
		})
		if err != nil {
			return fail(err)
		}
		stderr.Printf("psim: wrote %d job records to %s\n", len(res.Jobs), *dump)
	}
	if counts != nil {
		stdout.Println()
		stdout.Print(obs.CountersTable("engine counters", []obs.Counters{counts.Snapshot()}).Render())
		stdout.Println()
		stdout.Print(counts.CategoryTable().Render())
	}
	if sampler != nil {
		if err := ckpt.WriteAtomic(*tsOut, sampler.WriteCSV); err != nil {
			return fail(err)
		}
		stderr.Printf("psim: wrote %d time-series samples to %s\n", len(sampler.Samples), *tsOut)
	}
	if traceB != nil {
		if err := ckpt.WriteAtomic(*traceOut, traceB.WriteJSON); err != nil {
			return fail(err)
		}
		stderr.Printf("psim: wrote trace to %s (open in ui.perfetto.dev)\n", *traceOut)
	}
	return 0
}

func summaryTable(sum *metrics.Summary, coarse bool) *report.Table {
	cols := []string{"count", "mean sd", "median sd", "p95 sd", "worst sd",
		"mean tat", "worst tat", "mean wait", "suspensions"}
	fill := func(t *report.Table, row int, c metrics.CatStats) {
		if c.Count == 0 {
			return
		}
		t.Set(row, 0, float64(c.Count))
		t.Set(row, 1, c.MeanSlowdown)
		t.Set(row, 2, c.MedianSlowdown)
		t.Set(row, 3, c.P95Slowdown)
		t.Set(row, 4, c.WorstSlowdown)
		t.Set(row, 5, c.MeanTurnaround)
		t.Set(row, 6, c.WorstTurnaround)
		t.Set(row, 7, c.MeanWait)
		t.Set(row, 8, float64(c.Suspensions))
	}
	if coarse {
		cats := job.AllCategories4()
		rows := make([]string, len(cats))
		for i, c := range cats {
			rows[i] = c.String()
		}
		t := report.NewTable("per-category metrics (4-way)", rows, cols)
		for i, c := range cats {
			fill(t, i, sum.Cat4(c))
		}
		return t
	}
	cats := job.AllCategories()
	rows := make([]string, len(cats))
	for i, c := range cats {
		rows[i] = c.String()
	}
	t := report.NewTable("per-category metrics (Table I categories)", rows, cols)
	for i, c := range cats {
		fill(t, i, sum.Cat(c))
	}
	return t
}
