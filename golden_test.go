package pjs_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"pjs"
	"pjs/internal/obs"
)

// goldenModes are the fault settings TestActionStreamGolden crosses
// with every registry policy: none, processor failures, transient
// suspend/restart I/O faults, and both together.
var goldenModes = []struct {
	name      string
	faults    pjs.FaultConfig
	transient pjs.TransientFaultConfig
}{
	{name: "nofault"},
	{name: "fault", faults: goldenFaults},
	{name: "transient", transient: goldenTransient},
	{name: "both", faults: goldenFaults, transient: goldenTransient},
}

var (
	goldenFaults = pjs.FaultConfig{MTBF: 500 * 3600, MTTR: 2 * 3600, Seed: 17}
	// A huge health window with threshold 1 makes degradation permanent,
	// so every policy converges even at a 30% I/O failure rate.
	goldenTransient = pjs.TransientFaultConfig{
		WriteFailProb: 0.3, ReadFailProb: 0.3, Seed: 9,
		HealthThreshold: 1, HealthWindow: 1 << 40,
	}
)

// goldenDigests are the FNV-64a digests of each cell's audit log
// rendering, counters rendering and fault/IO tallies, keyed
// "<spec>/<mode>". A mismatch means the run's action stream changed
// bytes; the failure message prints the replacement line.
var goldenDigests = map[string][3]uint64{
	"fcfs/nofault":           {0x8a5f705c1e352b01, 0x3d33a14959d5c048, 0x669724958fd13c6f},
	"fcfs/fault":             {0x589e0a47496fe549, 0x7a91cbe34c56d08b, 0xa0702af7521565af},
	"fcfs/transient":         {0x8a5f705c1e352b01, 0x3d33a14959d5c048, 0x669724958fd13c6f},
	"fcfs/both":              {0x589e0a47496fe549, 0x7a91cbe34c56d08b, 0xa0702af7521565af},
	"conservative/nofault":   {0x369717571a1ffe94, 0xd19a29f9aae9e396, 0x669724958fd13c6f},
	"conservative/fault":     {0x6be1b3bc91885e58, 0x4995a10c6cde27ac, 0x62556c6c2c228570},
	"conservative/transient": {0x369717571a1ffe94, 0xd19a29f9aae9e396, 0x669724958fd13c6f},
	"conservative/both":      {0x6be1b3bc91885e58, 0x4995a10c6cde27ac, 0x62556c6c2c228570},
	"ns/nofault":             {0x369717571a1ffe94, 0x96d6ce3a2d815850, 0x669724958fd13c6f},
	"ns/fault":               {0xaf7cdf7c315dc982, 0x7c07c113d327208c, 0x62556c6c2c228570},
	"ns/transient":           {0x369717571a1ffe94, 0x96d6ce3a2d815850, 0x669724958fd13c6f},
	"ns/both":                {0xaf7cdf7c315dc982, 0x7c07c113d327208c, 0x62556c6c2c228570},
	"is/nofault":             {0xaa1b4f4e4bb4aeb1, 0xd7ecf3e412a8179f, 0x669724958fd13c6f},
	"is/fault":               {0xc70a8f2789ae04cb, 0x551e736f6d9ce4c1, 0xc5a7bb24770c9b6f},
	"is/transient":           {0xa6bbc4b370395b3b, 0x9f2890c77569bce9, 0xed383011cc3f1390},
	"is/both":                {0x7bdc524af6dfafab, 0x1c23f3095103d3a, 0xca04bb2bacfda62a},
	"ss:2/nofault":           {0xca2e4c792ef082f4, 0x612880e28eb34448, 0x669724958fd13c6f},
	"ss:2/fault":             {0x20de3f15dd2d7f80, 0x1c8a83c5c6df24ad, 0x86c51185a6917fa0},
	"ss:2/transient":         {0x7a2dbbb4d664d1f0, 0xce943b3e23d8e305, 0x16a4c9aed068b78a},
	"ss:2/both":              {0xcbebd82882ca8be1, 0xd488a753636ecf2, 0xd05d0749c6dc8745},
	"tss:2/nofault":          {0xca2e4c792ef082f4, 0x2ffd4e43b416ec1e, 0x669724958fd13c6f},
	"tss:2/fault":            {0x20de3f15dd2d7f80, 0xc280c3268378652b, 0x86c51185a6917fa0},
	"tss:2/transient":        {0x7a2dbbb4d664d1f0, 0xb8c060ab7342a76b, 0x16a4c9aed068b78a},
	"tss:2/both":             {0xcbebd82882ca8be1, 0xe3560af1b5025abc, 0xd05d0749c6dc8745},
	"ssmig:2/nofault":        {0xff3e4e01df897c23, 0x82a19860f34e2dd1, 0x669724958fd13c6f},
	"ssmig:2/fault":          {0x4d25cfba62740156, 0xd0f6acf5c6fbb0d5, 0xa4ff70b8ea9122a3},
	"ssmig:2/transient":      {0x4b5beb5fb5e5de2e, 0xedc0ab025a420218, 0x707d769331422125},
	"ssmig:2/both":           {0x10c081ae6f65a3c, 0x30b0ab8b386dce72, 0x312dbac6c3afdb2c},
	"gang/nofault":           {0x9b99bae92ba3efd1, 0xd91bc0a8c91b3019, 0x669724958fd13c6f},
	"gang/fault":             {0xa3ea9914141673ae, 0xc973f2bc999e0086, 0xcbd8d60989cf5373},
	"gang/transient":         {0x97fa446e81e3d84d, 0x568ab8cded2bd5a8, 0x9c14563bbf016a36},
	"gang/both":              {0xfb6834613b246cd7, 0xcdffe8fc4d5f0c8e, 0x1661b02449fcc9a9},
	"spec/nofault":           {0x8f5ba524cc5e1dec, 0x97b2718f2b04f8f9, 0x669724958fd13c6f},
	"spec/fault":             {0xf773d66372cd0d85, 0xe0620871202b6b3, 0x62556c6c2c228570},
	"spec/transient":         {0x8f5ba524cc5e1dec, 0x97b2718f2b04f8f9, 0x669724958fd13c6f},
	"spec/both":              {0xf773d66372cd0d85, 0xe0620871202b6b3, 0x62556c6c2c228570},
	"depth:2/nofault":        {0x369717571a1ffe94, 0x111ea03681e44031, 0x669724958fd13c6f},
	"depth:2/fault":          {0x6be1b3bc91885e58, 0x7c755228f6138463, 0x62556c6c2c228570},
	"depth:2/transient":      {0x369717571a1ffe94, 0x111ea03681e44031, 0x669724958fd13c6f},
	"depth:2/both":           {0x6be1b3bc91885e58, 0x7c755228f6138463, 0x62556c6c2c228570},
}

// TestActionStreamGolden pins the bytes of every registry policy's
// action stream across builds. The double-run determinism tests compare
// two runs of one build; this compares a run against digests recorded
// by an earlier build, so a refactor of the driver's bookkeeping that
// shifts a single audit entry, counter or tally fails here.
func TestActionStreamGolden(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 200, Seed: 21})
	for _, spec := range pjs.SchedulerSpecs() {
		for _, mode := range goldenModes {
			key := spec + "/" + mode.name
			t.Run(key, func(t *testing.T) {
				s, err := pjs.NewScheduler(spec)
				if err != nil {
					t.Fatalf("NewScheduler(%q): %v", spec, err)
				}
				c := obs.NewCounters(s.Name(), trace.Procs)
				opt := pjs.DiskOverhead()
				opt.Audit = true
				opt.MaxSteps = 50_000_000
				opt.Observer = c
				opt.Faults = mode.faults
				opt.Transient = mode.transient
				res, err := pjs.SimulateChecked(trace, s, opt)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				tallies := fmt.Sprint(res.Failures, res.Repairs, res.FailKills, res.ImagesLost,
					res.LostWorkSeconds, res.IORetries, res.IOExhaustions, res.IODegradations, res.IORestores)
				got := [3]uint64{fnv64(res.Audit.String()), fnv64(c.String()), fnv64(tallies)}
				if want, ok := goldenDigests[key]; !ok || got != want {
					t.Errorf("%s: digests (audit, counters, tallies) = %#x, want %#x; tallies %s\n\t%q: {%#x, %#x, %#x},",
						key, got, want, tallies, key, got[0], got[1], got[2])
				}
			})
		}
	}
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// timeSeriesDigests are the FNV-64a digests of each cell's Sampler
// CSV, keyed "<spec>/<mode>" like goldenDigests.
var timeSeriesDigests = map[string]uint64{
	"fcfs/nofault":           0xea7b1c62ecd72176,
	"fcfs/fault":             0xa15e503646f1f944,
	"fcfs/transient":         0xea7b1c62ecd72176,
	"fcfs/both":              0xa15e503646f1f944,
	"conservative/nofault":   0xb8c9c833a140106a,
	"conservative/fault":     0xbbd91ddac003ae76,
	"conservative/transient": 0xb8c9c833a140106a,
	"conservative/both":      0xbbd91ddac003ae76,
	"ns/nofault":             0xb8c9c833a140106a,
	"ns/fault":               0x6eac653eff50b8e4,
	"ns/transient":           0xb8c9c833a140106a,
	"ns/both":                0x6eac653eff50b8e4,
	"is/nofault":             0x5c236add0673a4e2,
	"is/fault":               0x8b6ac3129be6fb4b,
	"is/transient":           0x2c789ec530953ae1,
	"is/both":                0xe19ab532bd23c3c8,
	"ss:2/nofault":           0x648a2071ee3b426e,
	"ss:2/fault":             0x932e5d072d9c27c3,
	"ss:2/transient":         0x11ec3804c1444dee,
	"ss:2/both":              0xef5cd5ef50adaa8a,
	"tss:2/nofault":          0x648a2071ee3b426e,
	"tss:2/fault":            0x932e5d072d9c27c3,
	"tss:2/transient":        0x11ec3804c1444dee,
	"tss:2/both":             0xef5cd5ef50adaa8a,
	"ssmig:2/nofault":        0x6cfb25ed68e028fc,
	"ssmig:2/fault":          0xc2699699b2c523e1,
	"ssmig:2/transient":      0x47f026ab31f13cf9,
	"ssmig:2/both":           0xea37db44a876967c,
	"gang/nofault":           0x1f21a34acf714ffc,
	"gang/fault":             0x3777a6e5674fbb14,
	"gang/transient":         0xb4d0400d673b550e,
	"gang/both":              0x83aca0296ca6852,
	"spec/nofault":           0xdb702e7750baf9da,
	"spec/fault":             0x2ec537dee88561cc,
	"spec/transient":         0xdb702e7750baf9da,
	"spec/both":              0x2ec537dee88561cc,
	"depth:2/nofault":        0xb8c9c833a140106a,
	"depth:2/fault":          0xbbd91ddac003ae76,
	"depth:2/transient":      0xb8c9c833a140106a,
	"depth:2/both":           0xbbd91ddac003ae76,
}

// TestTimeSeriesGolden pins the bytes of every registry policy's
// time-series CSV across builds, as TestActionStreamGolden does for
// the action stream. It guards the census (queue depth and max queued
// xfactor per instant) and the CSV rendering together.
func TestTimeSeriesGolden(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 200, Seed: 21})
	for _, spec := range pjs.SchedulerSpecs() {
		for _, mode := range goldenModes {
			key := spec + "/" + mode.name
			t.Run(key, func(t *testing.T) {
				s, err := pjs.NewScheduler(spec)
				if err != nil {
					t.Fatalf("NewScheduler(%q): %v", spec, err)
				}
				sm := obs.NewSampler(trace.Procs)
				opt := pjs.DiskOverhead()
				opt.MaxSteps = 50_000_000
				opt.Observer = sm
				opt.Faults = mode.faults
				opt.Transient = mode.transient
				if _, err := pjs.SimulateChecked(trace, s, opt); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				var b strings.Builder
				if err := sm.WriteCSV(&b); err != nil {
					t.Fatal(err)
				}
				got := fnv64(b.String())
				if want, ok := timeSeriesDigests[key]; !ok || got != want {
					t.Errorf("%s: time-series digest = %#x, want %#x (%d rows)\n\t%q: %#x,",
						key, got, want, sm.Len(), key, got)
				}
			})
		}
	}
}
