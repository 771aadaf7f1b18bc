package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// newTestLoader builds a loader rooted at the module (two levels up from
// this package).
func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// want is one expected diagnostic: a fixture line and a message regexp.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantRe extracts `// want "regexp"` expectations from fixture sources.
var wantRe = regexp.MustCompile(`// want "([^"]+)"|// want ` + "`([^`]+)`")

// parseWants scans the fixture directory's sources for want comments.
func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pat := m[1]
			if pat == "" {
				pat = m[2]
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, pat, err)
			}
			wants = append(wants, want{file: path, line: i + 1, re: re})
		}
	}
	return wants
}

// fixtureCases pairs every check with its corpus directory (under
// testdata/src) and the synthetic import path that puts the fixture in
// the check's scope. A check may own several fixtures, one per scoped
// subsystem it guards (errwrite covers both the report and obs shapes).
// A `full` fixture is run under the whole suite instead of its single
// check: staleignore needs the other checks present, since a directive
// is only stale relative to checks that actually ran.
var fixtureCases = []struct {
	check  string
	dir    string
	asPath string
	full   bool
}{
	{check: "wallclock", dir: "wallclock", asPath: "pjs/internal/fixture/wallclock"},
	{check: "wallclock", dir: "perfclock", asPath: "pjs/internal/perf"},
	{check: "wallclock", dir: "perfclock_sched", asPath: "pjs/internal/sched/fixture/perfclock"},
	{check: "detrand", dir: "detrand", asPath: "pjs/internal/workload/fixture/detrand"},
	{check: "detrand", dir: "detrand_stream", asPath: "pjs/cmd/fixture/detrand"},
	{check: "stablesort", dir: "stablesort", asPath: "pjs/internal/sched/fixture/stablesort"},
	{check: "maporder", dir: "maporder", asPath: "pjs/internal/sim/fixture/maporder"},
	{check: "errwrite", dir: "errwrite", asPath: "pjs/internal/report/fixture"},
	{check: "errwrite", dir: "errwrite_obs", asPath: "pjs/internal/obs/fixture"},
	{check: "exhaustive", dir: "exhaustive", asPath: "pjs/internal/fixture/exhaustive"},
	{check: "globalmut", dir: "globalmut", asPath: "pjs/internal/sim/fixture/globalmut"},
	{check: "allocfree", dir: "allocfree", asPath: "pjs/internal/fixture/allocfree"},
	{check: "staleignore", dir: "staleignore", asPath: "pjs/internal/fixture/staleignore", full: true},
}

// TestCheckFixtures runs each check over its fixture package and
// demands an exact match between produced diagnostics and the want
// comments: same file, same line, message matching the pattern — no
// extras, no misses. Suppressed sites appear in the fixtures with a
// lint:ignore directive and no want comment, so an ignored suppression
// shows up as an unexpected diagnostic.
func TestCheckFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			check, ok := CheckByName(tc.check)
			if !ok {
				t.Fatalf("no check %q", tc.check)
			}
			if !check.Applies(tc.asPath) {
				t.Fatalf("check %s does not apply to its own fixture path %s", tc.check, tc.asPath)
			}
			dir := filepath.Join("testdata", "src", tc.dir)
			l := newTestLoader(t)
			p, err := l.LoadDir(dir, tc.asPath)
			if err != nil {
				t.Fatal(err)
			}
			checks := []Check{check}
			if tc.full {
				checks = AllChecks()
			}
			matchWants(t, dir, Run(p, checks))
		})
	}
}

// matchWants demands an exact match between produced diagnostics and
// the fixture's want comments: same file, same line, message matching
// the pattern — no extras, no misses.
func matchWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, dir)
	matched := make([]bool, len(wants))
diag:
	for _, d := range diags {
		for i, w := range wants {
			if matched[i] || !sameFile(d.Pos.Filename, w.file) || d.Pos.Line != w.line {
				continue
			}
			if !w.re.MatchString(d.Message) {
				t.Errorf("%s:%d: diagnostic %q does not match want %q",
					w.file, w.line, d.Message, w.re)
			}
			matched[i] = true
			continue diag
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// fixtureGolden is the byte-level oracle of the fixture corpus: every
// diagnostic of the full suite over every fixture case, one per line.
// It is edited together with the fixtures it records; there is no flag
// that rewrites it.
const fixtureGolden = "testdata/fixtures.golden"

// TestFixtureCorpusGolden pins the complete output of Run(p,
// AllChecks()) over fixtureCases: path relative to this package,
// line:col, check and the full message. The want comments match part
// of one check's messages; this catches any other change of text,
// column or count, so an engine rewrite can be shown to change no
// output at all.
func TestFixtureCorpusGolden(t *testing.T) {
	l := newTestLoader(t)
	var b strings.Builder
	for _, tc := range fixtureCases {
		p, err := l.LoadDir(filepath.Join("testdata", "src", tc.dir), tc.asPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range Run(p, AllChecks()) {
			fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n",
				filepath.ToSlash(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		}
	}
	want, err := os.ReadFile(fixtureGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("fixture diagnostics differ from %s; got:\n%s", fixtureGolden, got)
	}
}

// TestFixturesCleanUnderRemainingChecks cross-applies the full suite to
// every fixture: a fixture written for one check must not trip another
// (so the corpus stays a precise specification of each rule).
func TestFixturesCleanUnderRemainingChecks(t *testing.T) {
	l := newTestLoader(t)
	for _, tc := range fixtureCases {
		p, err := l.LoadDir(filepath.Join("testdata", "src", tc.dir), tc.asPath)
		if err != nil {
			t.Fatal(err)
		}
		var others []Check
		for _, c := range AllChecks() {
			if c.Name() != tc.check {
				others = append(others, c)
			}
		}
		for _, d := range Run(p, others) {
			t.Errorf("fixture %s trips foreign check: %s", tc.check, d)
		}
	}
}

// TestDirectiveValidation checks that malformed suppressions are
// themselves diagnostics and that prose mentioning the directive is not
// parsed as one.
func TestDirectiveValidation(t *testing.T) {
	l := newTestLoader(t)
	p, err := l.LoadDir(filepath.Join("testdata", "src", "directive"), "pjs/fixture/directive")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, AllChecks())
	if len(diags) != 2 {
		t.Fatalf("want exactly 2 directive diagnostics, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Check != "directive" {
			t.Errorf("unexpected check %q in %s", d.Check, d)
		}
	}
	if !strings.Contains(diags[0].Message, `unknown check "nosuchcheck"`) {
		t.Errorf("first diagnostic should name the unknown check: %s", diags[0])
	}
	if !strings.Contains(diags[1].Message, "needs a reason") {
		t.Errorf("second diagnostic should demand a reason: %s", diags[1])
	}
}

// TestStablesortCatchesReintroducedTieBug reproduces the acceptance
// criterion end-to-end in miniature: a package with the exact pre-fix
// easy.shadow sort shape, loaded under the easy package's import path,
// must yield a stablesort finding at the right position.
func TestStablesortCatchesReintroducedTieBug(t *testing.T) {
	dir := t.TempDir()
	src := `package easy

import "sort"

type rel struct {
	end   int64
	procs int
}

func shadow(rels []rel) {
	sort.Slice(rels, func(i, k int) bool { return rels[i].end < rels[k].end })
}
`
	if err := os.WriteFile(filepath.Join(dir, "easy.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, "pjs/internal/sched/easy")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, AllChecks())
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "stablesort" || d.Pos.Line != 11 {
		t.Errorf("want stablesort finding at line 11, got %s", d)
	}
}

// TestStablesortCatchesDroppedIDClause is a seeded deletion against the
// real tree: each unstable slices.SortFunc comparator of the scheduling
// code, copied with its final job-ID clause removed, must yield a
// stablesort finding, and the unmodified copy must yield none.
func TestStablesortCatchesDroppedIDClause(t *testing.T) {
	cases := []struct {
		pkg, file, asPath string
		clause, without   string
	}{
		{
			pkg: "job", file: "order.go", asPath: "pjs/internal/job",
			clause: "\tif c := cmp.Compare(a.tie, b.tie); c != 0 {\n\t\treturn c\n\t}\n" +
				"\treturn cmp.Compare(a.j.ID, b.j.ID)\n",
			without: "\treturn cmp.Compare(a.tie, b.tie)\n",
		},
		{
			pkg: "sched/ss", file: "ss.go", asPath: "pjs/internal/sched/ss",
			clause: "\t\tif c := cmp.Compare(b.Procs, a.Procs); c != 0 {\n\t\t\treturn c\n\t\t}\n" +
				"\t\treturn cmp.Compare(a.ID, b.ID)\n",
			without: "\t\treturn cmp.Compare(b.Procs, a.Procs)\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.pkg, func(t *testing.T) {
			for _, drop := range []bool{false, true} {
				dir := t.TempDir()
				src := filepath.Join("..", tc.pkg)
				entries, err := os.ReadDir(src)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					name := e.Name()
					if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
						continue
					}
					b, err := os.ReadFile(filepath.Join(src, name))
					if err != nil {
						t.Fatal(err)
					}
					if name == tc.file && drop {
						if strings.Count(string(b), tc.clause) != 1 {
							t.Fatalf("%s no longer holds exactly one copy of the ID clause; update the seed", name)
						}
						b = []byte(strings.Replace(string(b), tc.clause, tc.without, 1))
					}
					if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				p, err := newTestLoader(t).LoadDir(dir, tc.asPath)
				if err != nil {
					t.Fatal(err)
				}
				check, _ := CheckByName("stablesort")
				diags := Run(p, []Check{check})
				switch {
				case !drop && len(diags) != 0:
					t.Errorf("clean copy: want no findings, got %v", diags)
				case drop && (len(diags) != 1 || !strings.Contains(diags[0].Message, "slices.SortFunc is unstable")):
					t.Errorf("ID clause dropped: want one slices.SortFunc finding, got %v", diags)
				}
			}
		})
	}
}

// TestWallclockCatchesBareTimeNowInSched reproduces the acceptance
// criterion end-to-end in miniature: a bare time.Now() introduced under
// a pjs/internal/sched path — the exact regression the perf-clock
// exemption must not open — still yields a wallclock finding.
func TestWallclockCatchesBareTimeNowInSched(t *testing.T) {
	dir := t.TempDir()
	src := `package timing

import "time"

func stamp() int64 {
	return time.Now().UnixNano()
}
`
	if err := os.WriteFile(filepath.Join(dir, "timing.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, "pjs/internal/sched/timing")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, AllChecks())
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "wallclock" || !strings.Contains(d.Message, "time.Now reads the wall clock") {
		t.Errorf("want wallclock finding on time.Now, got %s", d)
	}
}

// wantOne runs the full suite over one synthetic source file loaded
// under asPath and demands exactly one finding, of the given check, on
// the given line, whose message contains msg.
func wantOne(t *testing.T, src, asPath, check string, line int, msg string) {
	t.Helper()
	diags := Run(loadSrc(t, src, asPath), AllChecks())
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %d: %v", len(diags), diags)
	}
	if d := diags[0]; d.Check != check || d.Pos.Line != line || !strings.Contains(d.Message, msg) {
		t.Errorf("want %s finding %q at line %d, got %s", check, msg, line, d)
	}
}

// victimsSrc is a helper of the SS package that collects victims by
// ranging over a map keyed by job ID; tail is what follows the loop.
const victimsSrc = `package ss

import "sort"

type Job struct {
	ID    int
	Procs int
}

func heldVictims(held map[int]*Job, need int) []*Job {
	var out []*Job
	for _, j := range held {
		if j.Procs <= need {
			out = append(out, j)
		}
	}
	%s
	return out
}

var _ = sort.SliceStable
`

// TestMaporderCatchesMapOrderedVictims seeds the bug maporder exists
// for on a decision path: SS victims collected in map order. The range
// is the finding, whether the slice is returned as it is or
// stable-sorted by width afterwards — the sort keeps the map's order
// among jobs of equal width, so it fixes nothing.
func TestMaporderCatchesMapOrderedVictims(t *testing.T) {
	for name, tail := range map[string]string{
		"unsorted":        "",
		"stable by width": "sort.SliceStable(out, func(i, k int) bool { return out[i].Procs > out[k].Procs })",
	} {
		t.Run(name, func(t *testing.T) {
			wantOne(t, fmt.Sprintf(victimsSrc, tail), "pjs/internal/sched/ss",
				"maporder", 12, "range over a map visits keys in random order")
		})
	}
}

// TestMaporderCatchesMapRangeInSim pins a map-range accumulation in the
// engine package.
func TestMaporderCatchesMapRangeInSim(t *testing.T) {
	wantOne(t, `package sim

func pending(byTime map[int64]int) []int {
	var ids []int
	for _, id := range byTime {
		ids = append(ids, id)
	}
	return ids
}
`, "pjs/internal/sim/queue", "maporder", 5, "range over a map")
}

// TestMaporderCatchesMapKeySeed pins a seed taken from a map key in a
// stream package, where the RNG constructor itself is allowed.
func TestMaporderCatchesMapKeySeed(t *testing.T) {
	wantOne(t, `package workload

import "math/rand"

func fromWeights(weights map[int64]float64) *rand.Rand {
	var first int64
	for k := range weights {
		first = k
		break
	}
	return rand.New(rand.NewSource(first))
}
`, "pjs/internal/workload/seeds", "maporder", 7, "range over a map")
}

// TestMaporderCatchesCollectedKeys pins map order leaked without a
// range statement.
func TestMaporderCatchesCollectedKeys(t *testing.T) {
	wantOne(t, `package easy

import (
	"maps"
	"slices"
)

func ids(held map[int]bool) []int {
	return slices.Collect(maps.Keys(held))
}
`, "pjs/internal/sched/easy", "maporder", 9, "maps.Keys yields in random map order")
}

// TestDetrandCatchesPointerSeed pins a seed taken from an address: the
// unsafe import is the finding, even in a stream package.
func TestDetrandCatchesPointerSeed(t *testing.T) {
	wantOne(t, `package workload

import (
	"math/rand"
	"unsafe"
)

func fromAddress(p *int) *rand.Rand {
	return rand.New(rand.NewSource(int64(uintptr(unsafe.Pointer(p)))))
}
`, "pjs/internal/workload/seeds", "detrand", 5, "import of unsafe")
}

// TestSeedflowCatchesTimeSeed reproduces the canonical seed bug: an RNG
// seeded from the wall clock under a cmd-style path, where wallclock
// does not reach. detrand's constructor rule reports both constructors.
func TestSeedflowCatchesTimeSeed(t *testing.T) {
	diags := Run(loadSrc(t, `package seedtool

import (
	"math/rand"
	"time"
)

func fresh() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano()))
}
`, "pjs/cmd/seedtool"), AllChecks())
	if len(diags) != 2 {
		t.Fatalf("want exactly 2 diagnostics, got %d: %v", len(diags), diags)
	}
	for i, name := range []string{"rand.New ", "rand.NewSource "} {
		if d := diags[i]; d.Check != "detrand" || d.Pos.Line != 9 || !strings.Contains(d.Message, name+"builds an RNG outside") {
			t.Errorf("want detrand constructor finding on %s at line 9, got %s", name, d)
		}
	}
}

// TestAllocfreeCatchesAllocBeforeGuard reproduces the regression the
// marker exists for: an allocation slipped in front of the nil guard of
// a marked fast path.
func TestAllocfreeCatchesAllocBeforeGuard(t *testing.T) {
	dir := t.TempDir()
	src := `package obsfast

import "fmt"

type Env struct {
	tag string
}

//lint:allocfree nil env
func (e *Env) emit(v int) {
	msg := fmt.Sprintf("v=%d", v)
	if e == nil {
		return
	}
	e.tag = msg
}
`
	if err := os.WriteFile(filepath.Join(dir, "emit.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, "pjs/internal/sched/obsfast")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, AllChecks())
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "allocfree" || !strings.Contains(d.Message, "fmt.Sprintf allocates on the //lint:allocfree fast path of emit") {
		t.Errorf("want allocfree finding on the pre-guard Sprintf, got %s", d)
	}
}

// TestAllocfreeMarkerShapes pins marker well-formedness: a
// condition-less doc marker and a marker stranded inside a body are
// both diagnostics. (Tested here rather than in the fixture corpus
// because a want comment appended to the marker line would read as its
// condition.)
func TestAllocfreeMarkerShapes(t *testing.T) {
	dir := t.TempDir()
	src := `package perfx

//lint:allocfree
func bare() int {
	return 0
}

func stray() int {
	//lint:allocfree misplaced
	return 0
}
`
	if err := os.WriteFile(filepath.Join(dir, "perfx.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, "pjs/internal/perf/perfx")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, []Check{&AllocfreeCheck{}})
	if len(diags) != 2 {
		t.Fatalf("want exactly 2 diagnostics, got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "needs a condition") {
		t.Errorf("first diagnostic should demand a condition: %s", diags[0])
	}
	if !strings.Contains(diags[1].Message, "must sit in the doc comment") {
		t.Errorf("second diagnostic should reject the stray marker: %s", diags[1])
	}
}

// TestPerfClockMarkerNeedsReason pins marker well-formedness: a
// reason-less //lint:perf-clock is no exemption even inside
// pjs/internal/perf — the marker is reported AND the call it hovered
// over still fires. (Tested here rather than in the fixture corpus
// because a want comment appended to the marker line would read as its
// reason.)
func TestPerfClockMarkerNeedsReason(t *testing.T) {
	dir := t.TempDir()
	src := `package perf

import "time"

func unjustified() time.Time {
	//lint:perf-clock
	return time.Now()
}
`
	if err := os.WriteFile(filepath.Join(dir, "perf.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, "pjs/internal/perf")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, []Check{&WallclockCheck{}})
	if len(diags) != 2 {
		t.Fatalf("want exactly 2 diagnostics, got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "needs a reason") {
		t.Errorf("first diagnostic should demand a reason: %s", diags[0])
	}
	if !strings.Contains(diags[1].Message, "time.Now reads the wall clock") {
		t.Errorf("second diagnostic should still ban the read: %s", diags[1])
	}
}

// TestExhaustiveCatchesDeletedCase reproduces the acceptance criterion
// end-to-end in miniature: deleting one event-kind case from a dispatch
// switch (the way a stale switch survives an enum extension) must
// produce an exhaustive finding under the full suite.
func TestExhaustiveCatchesDeletedCase(t *testing.T) {
	dir := t.TempDir()
	src := `package sim

type Kind int

const (
	Completion Kind = iota
	SuspendDone
	Arrival
)

func stale(k Kind) bool {
	switch k {
	case Completion:
		return true
	case SuspendDone:
		return false
	}
	return false
}
`
	if err := os.WriteFile(filepath.Join(dir, "sim.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, "pjs/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, AllChecks())
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "exhaustive" || !strings.Contains(d.Message, "missing Arrival") {
		t.Errorf("want exhaustive finding naming Arrival, got %s", d)
	}
}

// TestModulePackagesCoversTree sanity-checks the driver's package
// walker: the module root, the scheduler packages and the lint package
// itself must all be discovered, and testdata must not.
func TestModulePackagesCoversTree(t *testing.T) {
	l := newTestLoader(t)
	paths, err := l.ModulePackages(l.Root)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, p := range paths {
		got[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("walker descended into testdata: %s", p)
		}
	}
	for _, must := range []string{
		"pjs",
		"pjs/cmd/pjslint",
		"pjs/internal/lint",
		"pjs/internal/sched/easy",
		"pjs/internal/sched/speculative",
		"pjs/internal/sim",
	} {
		if !got[must] {
			t.Errorf("walker missed package %s (got %d packages)", must, len(paths))
		}
	}
}

// sameFile compares a diagnostic path against a fixture path regardless
// of absolute/relative rendering.
func sameFile(diagPath, fixturePath string) bool {
	da, err1 := filepath.Abs(diagPath)
	fa, err2 := filepath.Abs(fixturePath)
	if err1 != nil || err2 != nil {
		return filepath.Base(diagPath) == filepath.Base(fixturePath)
	}
	return da == fa
}

// TestRunOnOwnModuleIsClean is the meta-gate: the analysis suite applied
// to the whole module (the same invocation the tier-1 gate runs) must
// produce zero findings. This is what keeps the repository permanently
// at zero determinism debt.
func TestRunOnOwnModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l := newTestLoader(t)
	paths, err := l.ModulePackages(l.Root)
	if err != nil {
		t.Fatal(err)
	}
	checks := AllChecks()
	for _, path := range paths {
		p, err := l.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		for _, d := range Run(p, checks) {
			t.Errorf("finding on clean tree: %s", d)
		}
	}
}

// Example_suppression documents the directive syntax next to the code
// that implements it.
func Example_suppression() {
	fmt.Println(`//lint:ignore pjslint/wallclock progress timing only, never enters results`)
	// Output: //lint:ignore pjslint/wallclock progress timing only, never enters results
}
