// Command pjsbench measures simulator performance over a deterministic
// scenario matrix and gates regressions between two measurement files.
//
// Measure mode runs every combination of scheduling policy × workload
// model × offered-load level × {no-fault, fault-injected,
// transient-I/O}, repeating
// each scenario -samples times, and writes a schema-versioned BENCH.json
// (atomically) with throughput, allocation and per-phase hot-path
// timings plus an environment fingerprint:
//
//	pjsbench -out BENCH.json
//	pjsbench -policies ns,ss:2 -models CTC -loads 1.0,1.3 -jobs 2000 -samples 5
//
// Compare mode reads two BENCH.json files and prints a deterministic
// regression report — median and IQR per scenario, a configurable noise
// threshold — exiting non-zero when a regression is detected:
//
//	pjsbench -compare results/BENCH_seed.json BENCH.json
//	pjsbench -compare -threshold 0.10 old.json new.json
//
// The workloads and simulations themselves are fully deterministic
// (same trace, same events, same audit stream every run); only the
// wall-clock timings vary between machines and runs. The compare
// verdict is a pure function of the two files and the threshold.
//
// Exit codes: 0 success, 1 run or input failure, 2 flag error,
// 3 regression detected (compare mode).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"pjs"
	"pjs/internal/ckpt"
	"pjs/internal/cli"
	"pjs/internal/fault"
	"pjs/internal/overhead"
	"pjs/internal/perf"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: both streams are latched so a lost
// stdout write surfaces as a non-zero exit code (INV-errwrite).
func run(args []string, stdoutW, stderrW io.Writer) int {
	stdout, stderr := cli.Wrap(stdoutW), cli.Wrap(stderrW)
	return cli.Exit("pjsbench", pjsbench(args, stdout, stderr), stdout, stderr)
}

// Schema is the BENCH.json format version. Bump it on any change to
// the serialized shape; compare refuses mismatched schemas.
const Schema = "pjsbench/1"

// Bench is the top-level BENCH.json document.
type Bench struct {
	Schema    string     `json:"schema"`
	Env       EnvInfo    `json:"env"`
	Jobs      int        `json:"jobs"`
	Samples   int        `json:"samples"`
	Seed      int64      `json:"seed"`
	Scenarios []Scenario `json:"scenarios"`
}

// EnvInfo fingerprints the measurement environment, so a compare
// across different machines or toolchains is visibly apples-to-oranges.
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// Scenario is one matrix cell's measurements. Events is deterministic
// (a property of the simulation, identical every run); the per-sample
// arrays are wall-clock measurements in sample order.
type Scenario struct {
	ID     string  `json:"id"`
	Policy string  `json:"policy"`
	Model  string  `json:"model"`
	Load   float64 `json:"load"`
	Fault  bool    `json:"fault"`
	// Transient marks the transient-I/O cell (suspend/restart faults
	// with retry/backoff, under the disk overhead model). Omitempty
	// keeps older BENCH.json files schema-compatible: absent means
	// false, and compare treats the new cells as scenario churn.
	Transient bool  `json:"transient,omitempty"`
	Events    int64 `json:"events"`

	ElapsedNs      []int64   `json:"elapsed_ns"`
	NsPerEvent     []float64 `json:"ns_per_event"`
	EventsPerSec   []float64 `json:"events_per_sec"`
	AllocsPerEvent []float64 `json:"allocs_per_event"`
	HeapBytes      []uint64  `json:"heap_bytes"`

	Phases []PhaseBreakdown `json:"phases"`
}

// PhaseBreakdown is one hot-path phase's cost in a scenario. Calls is
// deterministic; NanosTotal holds one per-sample total each.
type PhaseBreakdown struct {
	Name       string  `json:"name"`
	Calls      int64   `json:"calls"`
	NanosTotal []int64 `json:"nanos_total"`
}

// benchFaults is the fault configuration of the matrix's fault-injected
// cells: failures rare enough that every policy still finishes, frequent
// enough to exercise the failure paths (MTBF 200 h, MTTR 2 h).
var benchFaults = fault.Config{MTBF: 200 * 3600, MTTR: 2 * 3600, Seed: 1}

// benchTransient is the transient-I/O configuration of the matrix's
// transient cells: aggressive enough (30% per operation) to exercise the
// retry/backoff, exhaustion and health-degradation paths on every
// policy that suspends.
var benchTransient = fault.TransientConfig{WriteFailProb: 0.3, ReadFailProb: 0.3, Seed: 1}

// Fault-axis modes, in matrix order.
const (
	faultNone      = "nofault"
	faultProc      = "fault"
	faultTransient = "transient"
)

func pjsbench(args []string, stdout, stderr *cli.W) int {
	fs := flag.NewFlagSet("pjsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		policies  = fs.String("policies", "ns,conservative,ss:2,tss:2", "comma-separated scheduler specs (see psim -sched)")
		models    = fs.String("models", "CTC,SDSC", "comma-separated workload models")
		loads     = fs.String("loads", "1.0", "comma-separated offered-load multipliers")
		jobs      = fs.Int("jobs", 1500, "jobs per generated trace")
		samples   = fs.Int("samples", 3, "timed repetitions per scenario")
		seed      = fs.Int64("seed", 1, "workload generator seed")
		faultMode = fs.String("fault", "all", "fault-injection axis: off, on, transient, both (off+on) or all")
		out       = fs.String("out", "BENCH.json", "output file (measure mode)")
		compare   = fs.Bool("compare", false, "compare two BENCH.json files: pjsbench -compare old.json new.json")
		threshold = fs.Float64("threshold", 0.25, "relative ns/event slowdown treated as a regression (compare mode)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		stderr.Println("pjsbench:", err)
		return 1
	}

	if *compare {
		if fs.NArg() != 2 {
			stderr.Println("pjsbench: -compare needs exactly two files: old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), *threshold, stdout, stderr)
	}
	if fs.NArg() != 0 {
		stderr.Printf("pjsbench: unexpected arguments %q (did you mean -compare?)\n", fs.Args())
		return 2
	}
	if *samples < 1 || *jobs < 1 {
		return fail(fmt.Errorf("-samples and -jobs must be ≥ 1, got %d/%d", *samples, *jobs))
	}

	var faultAxis []string
	switch *faultMode {
	case "off":
		faultAxis = []string{faultNone}
	case "on":
		faultAxis = []string{faultProc}
	case "transient":
		faultAxis = []string{faultTransient}
	case "both":
		faultAxis = []string{faultNone, faultProc}
	case "all":
		faultAxis = []string{faultNone, faultProc, faultTransient}
	default:
		return fail(fmt.Errorf("unknown -fault %q (want off, on, transient, both or all)", *faultMode))
	}
	loadVals, err := parseLoads(*loads)
	if err != nil {
		return fail(err)
	}

	bench := &Bench{
		Schema: Schema,
		Env: EnvInfo{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
		Jobs:    *jobs,
		Samples: *samples,
		Seed:    *seed,
	}

	// The matrix is enumerated in flag order — policies outermost, fault
	// axis innermost — so scenario IDs land in the same order every run
	// and compare never has to re-sort. It is validated whole before the
	// first measurement: a repeated entry would write two scenarios
	// under one ID, which compare cannot tell apart.
	type cell struct {
		spec, modelName string
		m               workload.Model
		load            float64
		mode            string
	}
	var cells []cell
	seen := map[string]bool{}
	for _, spec := range strings.Split(*policies, ",") {
		spec = strings.TrimSpace(spec)
		for _, modelName := range strings.Split(*models, ",") {
			modelName = strings.TrimSpace(modelName)
			m, ok := workload.ModelByName(modelName)
			if !ok {
				return fail(fmt.Errorf("unknown model %q", modelName))
			}
			for _, load := range loadVals {
				for _, mode := range faultAxis {
					id := scenarioID(spec, modelName, load, mode)
					if seen[id] {
						return fail(fmt.Errorf("duplicate scenario %s: a -policies, -models or -loads entry repeats", id))
					}
					seen[id] = true
					mm := m
					mm.OfferedLoad *= load
					cells = append(cells, cell{spec, modelName, mm, load, mode})
				}
			}
		}
	}
	for _, c := range cells {
		sc, err := measure(c.spec, c.modelName, c.m, c.load, c.mode, *jobs, *samples, *seed)
		if err != nil {
			return fail(err)
		}
		bench.Scenarios = append(bench.Scenarios, *sc)
		med := median(sc.EventsPerSec)
		stderr.Printf("pjsbench: %-32s events=%-8d median %.0f events/sec\n", sc.ID, sc.Events, med)
	}

	err = ckpt.WriteAtomic(*out, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(bench)
	})
	if err != nil {
		return fail(err)
	}
	stdout.Printf("pjsbench: wrote %d scenarios (%d samples each) to %s\n",
		len(bench.Scenarios), *samples, *out)
	return 0
}

// parseLoads parses the comma-separated load multipliers, each a finite
// positive number.
func parseLoads(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("bad -loads entry %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// scenarioID names one matrix cell, stable across runs and flags. The
// load is rendered in the shortest form that round-trips, so distinct
// loads get distinct IDs (1.0 is "load1"). The mode string is the ID
// suffix, so pre-transient IDs are unchanged.
func scenarioID(policy, model string, load float64, mode string) string {
	return policy + "/" + model + "/load" + strconv.FormatFloat(load, 'g', -1, 64) + "/" + mode
}

// measure times one scenario: the trace is generated once (identical
// for every sample), then the simulation runs samples times with a
// fresh scheduler, probe and memory-stats window each.
func measure(spec, modelName string, m workload.Model, load float64, mode string, jobs, samples int, seed int64) (*Scenario, error) {
	trace := workload.Generate(m, workload.GenOptions{Jobs: jobs, Seed: seed})
	sc := &Scenario{
		ID:        scenarioID(spec, modelName, load, mode),
		Policy:    spec,
		Model:     modelName,
		Load:      load,
		Fault:     mode == faultProc,
		Transient: mode == faultTransient,
	}
	clock := perf.Monotonic()
	for i := 0; i < samples; i++ {
		s, err := pjs.NewScheduler(spec)
		if err != nil {
			return nil, err
		}
		opt := sched.Options{Probe: perf.NewProbe(nil)}
		switch mode {
		case faultProc:
			opt.Faults = benchFaults
		case faultTransient:
			// Transient cells run under the disk overhead model so the
			// injected I/O has nonzero duration — the retry/backoff and
			// health machinery is on the timed path.
			opt.Transient = benchTransient
			opt.Overhead = overhead.Disk{}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := clock()
		res, err := sched.RunChecked(trace, s, opt)
		elapsed := clock() - start
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.ID, err)
		}
		runtime.ReadMemStats(&after)

		if i == 0 {
			sc.Events = res.Events
		} else if sc.Events != res.Events {
			return nil, fmt.Errorf("scenario %s: non-deterministic event count %d vs %d",
				sc.ID, sc.Events, res.Events)
		}
		sc.ElapsedNs = append(sc.ElapsedNs, elapsed)
		sc.NsPerEvent = append(sc.NsPerEvent, float64(elapsed)/float64(res.Events))
		sc.EventsPerSec = append(sc.EventsPerSec, float64(res.Events)/(float64(elapsed)/1e9))
		sc.AllocsPerEvent = append(sc.AllocsPerEvent,
			float64(after.Mallocs-before.Mallocs)/float64(res.Events))
		sc.HeapBytes = append(sc.HeapBytes, after.HeapAlloc)

		stats := opt.Probe.Snapshot()
		for ph := perf.Phase(0); ph < perf.NumPhases; ph++ {
			st := stats[ph]
			if st.Calls == 0 {
				continue
			}
			sc.addPhaseSample(ph.String(), st.Calls, st.Nanos)
		}
	}
	return sc, nil
}

// addPhaseSample appends one sample's total to the named phase row,
// creating it on the first sample and checking the deterministic call
// count on later ones.
func (sc *Scenario) addPhaseSample(name string, calls, nanos int64) {
	for i := range sc.Phases {
		if sc.Phases[i].Name == name {
			sc.Phases[i].NanosTotal = append(sc.Phases[i].NanosTotal, nanos)
			return
		}
	}
	sc.Phases = append(sc.Phases, PhaseBreakdown{Name: name, Calls: calls, NanosTotal: []int64{nanos}})
}

// median returns the middle of the sorted values (mean of the central
// pair for even counts); 0 for an empty slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// iqr returns the interquartile range (p75 − p25) of the values; 0 when
// fewer than two samples exist. The quartile ranks round outward (q1
// down, q3 up), so small sample counts yield a wide — conservative —
// noise band rather than collapsing onto the median.
func iqr(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q1 := s[(len(s)-1)/4]
	q3 := s[(3*(len(s)-1)+3)/4]
	return q3 - q1
}

// loadBench reads and validates one BENCH.json file.
func loadBench(path string) (*Bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, this tool reads %q", path, b.Schema, Schema)
	}
	return &b, nil
}

// compareFiles renders the regression report between two measurement
// files. A scenario regresses when its new median ns/event exceeds the
// old median by more than threshold (relative) AND the absolute gap
// exceeds both files' IQR — a wide-variance measurement is noise, not
// evidence. The report and verdict are a pure function of the inputs.
func compareFiles(oldPath, newPath string, threshold float64, stdout, stderr *cli.W) int {
	oldB, err := loadBench(oldPath)
	if err != nil {
		stderr.Println("pjsbench:", err)
		return 1
	}
	newB, err := loadBench(newPath)
	if err != nil {
		stderr.Println("pjsbench:", err)
		return 1
	}
	if oldB.Env != newB.Env {
		stderr.Printf("pjsbench: warning: environments differ (old %+v, new %+v); timings are not directly comparable\n",
			oldB.Env, newB.Env)
	}

	oldByID := map[string]*Scenario{}
	for i := range oldB.Scenarios {
		oldByID[oldB.Scenarios[i].ID] = &oldB.Scenarios[i]
	}

	stdout.Printf("%-34s %12s %12s %8s  %s\n", "scenario", "old ns/ev", "new ns/ev", "delta", "verdict")
	regressions := 0
	matched := map[string]bool{}
	for i := range newB.Scenarios {
		n := &newB.Scenarios[i]
		o, ok := oldByID[n.ID]
		if !ok {
			stdout.Printf("%-34s %12s %12.0f %8s  new scenario\n", n.ID, "-", median(n.NsPerEvent), "-")
			continue
		}
		matched[n.ID] = true
		oldMed, newMed := median(o.NsPerEvent), median(n.NsPerEvent)
		delta := (newMed - oldMed) / oldMed
		noise := iqr(o.NsPerEvent)
		if ni := iqr(n.NsPerEvent); ni > noise {
			noise = ni
		}
		verdict := "ok"
		if delta > threshold && newMed-oldMed > noise {
			verdict = "REGRESSION"
			regressions++
		} else if delta < -threshold {
			verdict = "improved"
		}
		stdout.Printf("%-34s %12.0f %12.0f %+7.1f%%  %s\n", n.ID, oldMed, newMed, 100*delta, verdict)
		if o.Events != n.Events {
			stdout.Printf("%-34s   note: event count changed %d -> %d (different simulation, not a perf delta)\n",
				n.ID, o.Events, n.Events)
		}
	}
	// Report scenarios that disappeared, in the old file's order (never
	// map order — the report must be byte-stable).
	for i := range oldB.Scenarios {
		if id := oldB.Scenarios[i].ID; !matched[id] {
			stdout.Printf("%-34s   removed (present only in %s)\n", id, oldPath)
		}
	}
	if regressions > 0 {
		stdout.Printf("pjsbench: %d regression(s) above %.0f%% threshold\n", regressions, 100*threshold)
		return 3
	}
	stdout.Printf("pjsbench: no regressions above %.0f%% threshold\n", 100*threshold)
	return 0
}
