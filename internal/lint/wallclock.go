package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WallclockCheck forbids reading or acting on the machine's wall clock
// inside the simulator: every timestamp must flow through the virtual
// clock (sim.Engine.Now, surfaced to policies as sched.Env.Now), or a
// run stops being a pure function of (trace, seed, policy) and the
// paper's tables stop being reproducible.
//
// Scope and allowlist: the check covers pjs/internal/... only. cmd/ is
// deliberately out of scope — the CLI front-ends use the wall clock
// solely for operator-facing progress timing (e.g. the per-experiment
// elapsed-seconds lines cmd/pexp/main.go prints to stderr), and those
// readings never feed simulation state, metrics, or anything else that
// lands in a result. Keeping the allowlist here, as check scope, means
// cmd/ needs no per-call-site lint:ignore directives and a wall-clock
// read accidentally introduced under internal/ still fails the build.
//
// The performance clock is the wall clock too. Outside
// pjs/internal/perf the check also bans calling a perf.Clock value and
// Probe.Snapshot, the two reads that turn probe timing into a number.
// With perf.Span opaque, no timing value can then arise in simulator
// code, so none can flow into an audit entry, the watermark hash, a
// checkpoint or an observer event.
//
// One scoped exemption exists inside internal/: pjs/internal/perf is
// the sanctioned performance-clock package, and a banned call there may
// carry a justified //lint:perf-clock <reason> marker on its own line
// or the line above. The marker is deliberately narrower than a
// lint:ignore directive — outside pjs/internal/perf it is itself a
// finding (and the wall-clock finding it tried to cover still fires),
// so wall-clock reads cannot leak back into simulator code by
// cargo-culting the marker. A marker in scope that covers no banned
// call is stale and reported, staleignore-style.
type WallclockCheck struct{}

// wallclockScope is the single import-path prefix the rule enforces.
const wallclockScope = "pjs/internal/"

// perfClockScope is the only package subtree where //lint:perf-clock
// markers are honoured: the monotonic-clock abstraction itself.
const perfClockScope = "pjs/internal/perf"

// perfClockMarker is the exemption marker comment prefix.
const perfClockMarker = "lint:perf-clock"

// wallclockBanned lists the time-package entry points that observe or
// depend on the wall clock (or the process timer). Pure constructors and
// conversions (time.Duration, time.Unix, time.Date) are fine: they do
// not read the clock.
var wallclockBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Name implements Check.
func (*WallclockCheck) Name() string { return "wallclock" }

// Doc implements Check.
func (*WallclockCheck) Doc() string {
	return "no wall-clock reads (time.Now/Since/Sleep/..., perf.Clock calls, Probe.Snapshot) inside internal/; use the virtual clock (internal/perf is exempt; its time calls need //lint:perf-clock)"
}

// Applies implements Check.
func (*WallclockCheck) Applies(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, wallclockScope)
}

// perfClockScoped reports whether the package may use perf-clock
// markers: pjs/internal/perf itself or a subpackage of it.
func perfClockScoped(pkgPath string) bool {
	return pkgPath == perfClockScope || strings.HasPrefix(pkgPath, perfClockScope+"/")
}

// perfMarkerKey addresses one marker site by file line.
type perfMarkerKey struct {
	file string
	line int
}

// perfMarker is one well-formed //lint:perf-clock marker and whether it
// exempted a banned call this run.
type perfMarker struct {
	pos  token.Pos
	used bool
}

// collectPerfClockMarkers scans the package comments for perf-clock
// markers, keyed by (file, line). Markers without a reason are reported
// immediately: an unjustified exemption is no exemption.
func collectPerfClockMarkers(p *Package, rep *Reporter) map[perfMarkerKey]*perfMarker {
	markers := map[perfMarkerKey]*perfMarker{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, perfClockMarker) {
					continue
				}
				fields := strings.Fields(text)
				if fields[0] != perfClockMarker {
					continue // prose mentioning the marker
				}
				if len(fields) < 2 {
					rep.Reportf(c.Pos(), "//lint:perf-clock needs a reason")
					continue
				}
				pos := p.Fset.Position(c.Pos())
				markers[perfMarkerKey{file: pos.Filename, line: pos.Line}] = &perfMarker{pos: c.Pos()}
			}
		}
	}
	return markers
}

// Run implements Check.
func (c *WallclockCheck) Run(p *Package, rep *Reporter) {
	markers := collectPerfClockMarkers(p, rep)
	inPerf := perfClockScoped(p.Path)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if read, ok := perfClockRead(p, call); ok {
				if !inPerf {
					rep.Reportf(call.Pos(),
						"%s; simulator code must use the virtual clock (Env.Now)", read)
				}
				return true
			}
			path, name, ok := pkgFunc(p, call)
			if !ok || path != "time" || !wallclockBanned[name] {
				return true
			}
			if inPerf {
				pos := p.Fset.Position(call.Pos())
				for _, line := range []int{pos.Line, pos.Line - 1} {
					if m, found := markers[perfMarkerKey{file: pos.Filename, line: line}]; found {
						m.used = true
						return true
					}
				}
			}
			rep.Reportf(call.Pos(),
				"time.%s reads the wall clock; simulator code must use the virtual clock (Env.Now)", name)
			return true
		})
	}
	// Marker hygiene. Emission order over the map is arbitrary; the
	// driver sorts all diagnostics by position before rendering.
	for _, m := range markers {
		if !inPerf {
			rep.Reportf(m.pos,
				"//lint:perf-clock is only valid inside %s; this package must use the virtual clock", perfClockScope)
		} else if !m.used {
			rep.Reportf(m.pos,
				"//lint:perf-clock exempts nothing; delete the stale marker")
		}
	}
}

// perfClockRead names a read of the performance clock that is not a
// time-package call: calling a value whose type is a named func type
// "Clock", or the Snapshot method of a type named "Probe". Name-based
// resolution (like the audit-sink rule, auditEmitSink) keeps fixtures
// self-contained and survives package moves.
func perfClockRead(p *Package, call *ast.CallExpr) (string, bool) {
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.Type != nil && !tv.IsType() {
		if named, ok := derefNamed(tv.Type); ok && named.Obj().Name() == "Clock" {
			if _, isFunc := named.Underlying().(*types.Signature); isFunc {
				return "a perf.Clock call reads the wall clock", true
			}
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Snapshot" {
		if tv, ok := p.Info.Types[sel.X]; ok && tv.Type != nil {
			if named, ok := derefNamed(tv.Type); ok && named.Obj().Name() == "Probe" {
				return "Probe.Snapshot reads wall-clock probe timings", true
			}
		}
	}
	return "", false
}
