// Command pexp reproduces the paper's tables and figures.
//
// Usage:
//
//	pexp -list                      # enumerate experiments
//	pexp -exp fig7                  # one experiment
//	pexp -exp fig7,fig8 -jobs 10000 # bigger trace, several experiments
//	pexp -exp all -csv out/         # everything, with CSV dumps
//	pexp -exp all -memo-dir cache/  # resumable: finished runs persist
//
// With -memo-dir every completed simulation is saved as a checksummed
// memo file; re-running the same sweep recalls finished runs instead
// of recomputing them, so an interrupted sweep (SIGINT exits with code
// 3 between experiments) resumes where it left off. Corrupt or foreign
// cache entries are detected and regenerated, never trusted.
//
// Exit codes: 0 success, 1 failure, 2 flag error, 3 interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"pjs"
	"pjs/internal/ckpt"
	"pjs/internal/cli"
	"pjs/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: both streams are latched so a lost
// stdout write surfaces as a non-zero exit code (INV-errwrite).
func run(args []string, stdoutW, stderrW io.Writer) int {
	stdout, stderr := cli.Wrap(stdoutW), cli.Wrap(stderrW)
	return cli.Exit("pexp", pexp(args, stdout, stderr), stdout, stderr)
}

// pexp parses args and renders the selected experiments. User-input
// errors (unknown experiment ids, unwritable CSV directories) come back
// as a friendly stderr message and a non-zero exit code, never a panic.
func pexp(args []string, stdout, stderr *cli.W) int {
	fs := flag.NewFlagSet("pexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "", "experiment id(s), comma separated, or 'all'")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		jobs     = fs.Int("jobs", 8000, "jobs per generated trace")
		seed     = fs.Int64("seed", 1, "trace generator seed")
		csvDir   = fs.String("csv", "", "also write <id>.csv files to this directory")
		quiet    = fs.Bool("q", false, "suppress progress timing lines")
		verify   = fs.Bool("verify", false, "replay every simulation through the invariant checker")
		counters = fs.Bool("counters", false, "print per-experiment engine counter tables")
		memoDir  = fs.String("memo-dir", "", "cache finished simulations here; interrupted sweeps resume from the cache")
		faults   = cli.FaultFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		stderr.Println("pexp:", err)
		return 1
	}

	if *list {
		for _, e := range pjs.Experiments() {
			stdout.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *exp == "" {
		return fail(fmt.Errorf("-exp required (or -list); e.g. -exp fig7 or -exp all"))
	}

	var selected []pjs.Experiment
	if *exp == "all" {
		selected = pjs.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			e, ok := pjs.ExperimentByID(id)
			if !ok {
				return fail(fmt.Errorf("unknown experiment %q (try -list)", id))
			}
			selected = append(selected, e)
		}
	}

	fc, tc, err := faults()
	if err != nil {
		return fail(err)
	}
	cfg := pjs.ExpConfig{Jobs: *jobs, Seed: *seed, Verify: *verify, Faults: fc, Transient: tc}
	ctx := context.Background()
	if *memoDir != "" {
		if err := os.MkdirAll(*memoDir, 0o755); err != nil {
			return fail(err)
		}
		cfg.MemoDir = *memoDir
		cfg.Warnf = func(format string, args ...any) {
			stderr.Printf("pexp: "+format+"\n", args...)
		}
		// With a persistent cache an interrupt is recoverable: stop
		// between experiments, keep everything already memoized.
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt)
		defer stop()
	}
	var reg *obs.Registry
	if *counters {
		reg = obs.NewRegistry()
		cfg.Counters = reg
	}
	runner := pjs.NewRunner(cfg)
	var prevSnap []obs.Counters
	for _, e := range selected {
		if ctx.Err() != nil {
			stderr.Printf("pexp: interrupted before %s; finished runs are memoized in %s — rerun the same command to resume\n",
				e.ID, *memoDir)
			return 3
		}
		// Wall-clock here times the experiment for the operator's stderr
		// progress line only; it never enters simulation state, which is
		// why cmd/ sits outside the pjslint wallclock check's scope (the
		// allowlist rationale lives on internal/lint.WallclockCheck).
		start := time.Now()
		out := e.Run(runner)
		if !*quiet {
			stderr.Printf("[%s] %s (%.1fs)\n", e.ID, e.Title, time.Since(start).Seconds())
		}
		stdout.Printf("=== %s: %s ===\n%s\n", e.ID, e.Title, out.Render())
		var delta []obs.Counters
		if reg != nil {
			snap := reg.Snapshot()
			// Memoized runs count toward the experiment that executed
			// them; a delta can be empty if every run was recalled.
			delta = obs.DeltaSnapshots(snap, prevSnap)
			prevSnap = snap
			if len(delta) > 0 {
				t := obs.CountersTable(fmt.Sprintf("engine counters (%s, newly executed runs)", e.ID), delta)
				stdout.Printf("%s\n", t.Render())
			}
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return fail(err)
			}
			if csv := out.CSV(); csv != "" {
				path := filepath.Join(*csvDir, e.ID+".csv")
				if err := ckpt.WriteFileAtomic(path, []byte(csv)); err != nil {
					return fail(err)
				}
			}
			if len(delta) > 0 {
				t := obs.CountersTable(e.ID+" counters", delta)
				path := filepath.Join(*csvDir, e.ID+".counters.csv")
				if err := ckpt.WriteFileAtomic(path, []byte(t.CSV())); err != nil {
					return fail(err)
				}
			}
		}
	}
	return 0
}
