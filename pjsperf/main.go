package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"

	"pjs/internal/ckpt"
	"pjs/internal/cli"
)

func main() {
	// The simulator is single-threaded. One P keeps the garbage collector
	// and idle-P spinning from sharing the machine with it, which on a
	// shared two-core Xeon VM cut the run-to-run spread of one trace's
	// simulation time from 23% to 9%.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: both streams are latched so a lost
// stdout write surfaces as a non-zero exit code.
func run(args []string, stdoutW, stderrW io.Writer) int {
	stdout, stderr := cli.Wrap(stdoutW), cli.Wrap(stderrW)
	return cli.Exit("pjsperf", pjsperf(args, workloads, realTiming(), stdout, stderr), stdout, stderr)
}

// schema is the version of the report file; compare refuses others.
const schema = "pjsperf/1"

// reportFile is what -out writes: every measured sample, so that two
// reports can be compared without rerunning either.
type reportFile struct {
	Schema    string           `json:"schema"`
	Env       envInfo          `json:"env"`
	Seed      int64            `json:"seed"`
	Workloads []workloadReport `json:"workloads"`
}

// envInfo fingerprints the machine a report was measured on.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

// workloadReport is one workload's measurement: the per-pass samples of
// each end-to-end metric and, from a traced run, the per-layer metrics.
type workloadReport struct {
	Name      string               `json:"name"`
	Digest    string               `json:"digest"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Samples   map[string][]float64 `json:"samples"`
	// Calib is each untraced pass's calibration readings and RawWall its
	// wall time before scaling to reference seconds.
	Calib   [][]float64        `json:"calib_s"`
	RawWall []float64          `json:"raw_wall_s"`
	Layers  map[string]float64 `json:"layers,omitempty"`
}

func pjsperf(args []string, table []workload, tm timing, stdout, stderr *cli.W) int {
	fs := flag.NewFlagSet("pjsperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "measure one workload and print its result as a JSON line")
		suite   = fs.Bool("suite", false, "measure every workload, passes interleaved")
		compare = fs.Bool("compare", false, "compare two reports: pjsperf -compare old.json new.json")
		seed    = fs.Int64("seed", 1, "input seed; seed 1 is checked against the golden digests")
		seconds = fs.Int("seconds", 25, "measuring time of each workload")
		traceF  = fs.Int("trace", 0, "1 adds traced passes and reports the per-layer metrics")
		out     = fs.String("out", "", "write the report to this .json file; with -trace 1 also the stage spans, to the same name ending .trace.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			stderr.Println("pjsperf: -compare needs two files: old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *traceF < 0 || *traceF > 1 || *seconds < 1 || (*name == "") == !*suite {
		stderr.Println("pjsperf: want exactly one of -workload <name> and -suite, -trace 0 or 1, -seconds ≥ 1")
		return 2
	}
	traced := *traceF == 1

	var sel []workload
	if *suite {
		sel = table
	} else {
		w, ok := workloadByName(table, *name)
		if !ok {
			stderr.Printf("pjsperf: unknown workload %q\n", *name)
			return 2
		}
		sel = []workload{w}
	}
	runs := make([]*runner, len(sel))
	for i, w := range sel {
		r, err := newRun(w, *seed, tm)
		if err != nil {
			stderr.Println("pjsperf:", err)
			return 1
		}
		runs[i] = r
	}

	budget := int64(*seconds) * 1e9
	never := func(int) bool { return false }
	switch {
	case *suite:
		// Three passes at least, so that -compare has quartiles.
		schedule(runs, 3, budget, never)
		if traced {
			schedule(runs, 1, 0, func(int) bool { return true })
		}
	case traced:
		schedule(runs, 2, budget, func(i int) bool { return i%2 == 1 })
	default:
		schedule(runs, 2, budget, never)
	}

	rep := reportFile{Schema: schema, Seed: *seed}
	ok := true
	for _, r := range runs {
		r.checkGolden()
		wr := workloadReport{Name: r.w.name, Digest: fmt.Sprintf("%016x", r.digest),
			Attempted: r.attempted, Failed: r.failed, Errors: r.errs, Samples: r.samples()}
		for _, ps := range r.untraced {
			wr.Calib = append(wr.Calib, ps.calib)
			wr.RawWall = append(wr.RawWall, sec(ps.rawWall))
		}
		if traced {
			wr.Layers = r.layers()
		}
		for _, e := range r.errs {
			stderr.Printf("pjsperf: %s: %s\n", r.w.name, e)
		}
		ok = ok && r.failed == 0
		rep.Workloads = append(rep.Workloads, wr)
	}
	if *out != "" {
		rep.Env = environment()
		if err := writeReport(*out, &rep, runs, traced); err != nil {
			stderr.Println("pjsperf:", err)
			return 1
		}
	}
	printReport(stdout, &rep, traced)
	if !*suite {
		wr := rep.Workloads[0]
		if err := printResult(stdout, wr, traced); err != nil {
			stderr.Println("pjsperf:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// workloadByName returns the named entry of the table.
func workloadByName(table []workload, name string) (workload, bool) {
	for _, w := range table {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// checkGolden fails every cell of the run when seed 1's workload digest
// differs from the golden value held in the table.
func (r *runner) checkGolden() {
	if r.seed != 1 || r.w.golden == "" {
		return
	}
	if got := fmt.Sprintf("%016x", r.digest); got != r.w.golden {
		r.failed = r.attempted
		r.errs = append(r.errs, fmt.Sprintf("digest %s differs from the golden %s", got, r.w.golden))
	}
}

// printReport prints every metric of every workload with its unit: the
// median and quartiles over passes for the end-to-end metrics, and the
// per-layer metrics of a traced run.
func printReport(w *cli.W, rep *reportFile, traced bool) {
	for _, wr := range rep.Workloads {
		n := len(wr.Samples[endToEnd[0].name])
		w.Printf("%s: digest %s, %d/%d cells failed, %d passes\n", wr.Name, wr.Digest, wr.Failed, wr.Attempted, n)
		w.Printf("  %-28s %14s %14s %14s  %s\n", "metric", "median", "q1", "q3", "unit")
		for _, m := range endToEnd {
			q1, q2, q3 := quartiles(wr.Samples[m.name])
			w.Printf("  %-28s %14.6g %14.6g %14.6g  %s\n", m.name, q2, q1, q3, m.unit)
		}
		if traced {
			for _, m := range perLayer {
				w.Printf("  %-28s %14.6g %14s %14s  %s\n", m.name, wr.Layers[m.name], "", "", m.unit)
			}
		}
	}
}

// resultLine is the one-line JSON summary a -workload run ends with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the result line: the medians of the end-to-end
// metrics, or the per-layer metrics of a traced run.
func printResult(w *cli.W, wr workloadReport, traced bool) error {
	line := resultLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]metricValue{}}
	set := func(m metric, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // only a run whose cells failed has no finite value
		}
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if traced {
		for _, m := range perLayer {
			set(m, wr.Layers[m.name])
		}
	} else {
		for _, m := range endToEnd {
			set(m, median(wr.Samples[m.name]))
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	w.Printf("%s\n", data)
	return w.Err()
}

// writeReport writes the report and, for a traced run, the stage spans
// of its traced passes.
func writeReport(path string, rep *reportFile, runs []*runner, traced bool) error {
	err := ckpt.WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	})
	if err != nil || !traced {
		return err
	}
	names := make([]string, len(runs))
	spans := make([][]span, len(runs))
	for i, r := range runs {
		names[i] = r.w.name
		for _, ps := range r.traced {
			spans[i] = append(spans[i], ps.tr.spans...)
		}
	}
	return ckpt.WriteAtomic(strings.TrimSuffix(path, ".json")+".trace.json", func(w io.Writer) error {
		return writeChromeTrace(w, names, spans)
	})
}

// environment fingerprints the machine.
func environment() envInfo {
	return envInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo; "" elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
