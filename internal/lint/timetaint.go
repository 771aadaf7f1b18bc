package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TimetaintCheck forbids timing values — anything derived from the wall
// clock or the performance clock — from flowing into the structures that
// define a run's identity: audit entries, the watermark FNV hash,
// checkpoint payloads and observer events. The syntactic wallclock rule
// bans the *calls*; this rule bans the *flow*: a perf.Clock reading
// stashed in a local, laundered through arithmetic or a helper's return
// value, and only then stored into an audit Entry is exactly the leak
// that silently breaks byte-identity between two otherwise identical
// runs. Probe timing is legitimate only inside pjs/internal/perf, whose
// sinks (Stats, WriteSummary) exist to carry it — so that package is the
// one scope exclusion.
//
// The analysis is the taint engine in taint.go: flow-sensitive within a
// function, summary-based across in-package calls (a helper returning a
// timing value taints its callers; a helper whose parameter reaches an
// audit sink makes tainted arguments a finding at the call site).
type TimetaintCheck struct{}

// Name implements Check.
func (*TimetaintCheck) Name() string { return "timetaint" }

// Doc implements Check.
func (*TimetaintCheck) Doc() string {
	return "timing values (perf.Clock/time.Now/Probe.Begin) must not flow into audit entries, the watermark hash, checkpoints or observer events"
}

// Applies implements Check: everything under internal/ except the
// sanctioned perf package subtree.
func (*TimetaintCheck) Applies(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, wallclockScope) && !perfClockScoped(pkgPath)
}

// timetaintSinkTypes are the determinism-bearing named types whose
// construction is a sink, with the sink description used in findings.
var timetaintSinkTypes = map[string]string{
	"Entry":    "an audit entry",
	"Event":    "an observer event",
	"Snapshot": "a checkpoint payload",
}

// timetaintSinkFuncs are the watermark-hash functions whose arguments
// are sinks.
var timetaintSinkFuncs = map[string]string{
	"mix64":    "the watermark hash",
	"mixEntry": "the watermark hash",
}

// timetaintSpec wires the engine: sources are timing reads, sinks are
// run-identity constructions.
var timetaintSpec = &TaintSpec{
	CallSource: func(p *Package, call *ast.CallExpr) Taint {
		if isTimingCall(p, call) {
			return TaintTime
		}
		return 0
	},
	SinkCall: func(p *Package, call *ast.CallExpr) ([]int, string) {
		if desc, ok := auditEmitSink(p, call); ok {
			return allArgs(call), desc
		}
		if callee := p.CalleeOf(call); callee != nil {
			if desc, ok := timetaintSinkFuncs[callee.Name()]; ok {
				return allArgs(call), desc
			}
		}
		return nil, ""
	},
	SinkComposite: func(p *Package, lit *ast.CompositeLit) (string, bool) {
		tv, ok := p.Info.Types[lit]
		if !ok || tv.Type == nil {
			return "", false
		}
		named, ok := derefNamed(tv.Type)
		if !ok {
			return "", false
		}
		desc, ok := timetaintSinkTypes[named.Obj().Name()]
		return desc, ok
	},
}

// isTimingCall classifies timing sources: the banned time-package
// readers, a call of any value whose type is a named func type "Clock",
// and the Begin/Snapshot methods of a type named "Probe". Name-based
// resolution (like the audit-sink rule, auditEmitSink) keeps fixtures
// self-contained and survives package moves.
func isTimingCall(p *Package, call *ast.CallExpr) bool {
	if path, name, ok := pkgFunc(p, call); ok && path == "time" && wallclockBanned[name] {
		return true
	}
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.Type != nil && !tv.IsType() {
		if named, ok := derefNamed(tv.Type); ok && named.Obj().Name() == "Clock" {
			if _, isFunc := named.Underlying().(*types.Signature); isFunc {
				return true
			}
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Begin" || sel.Sel.Name == "Snapshot" {
			if tv, ok := p.Info.Types[sel.X]; ok && tv.Type != nil {
				if named, ok := derefNamed(tv.Type); ok && named.Obj().Name() == "Probe" {
					return true
				}
			}
		}
	}
	return false
}

// auditEmitSink matches the audit-log append: a method named add or Add
// on a value whose named type is AuditLog. The driver's record funnel
// makes that call, so the taint summaries carry the sink up to
// record's callers, and maporder's auditCallers marks record and every
// function that reaches it.
func auditEmitSink(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "add", "Add":
	default:
		return "", false
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return "", false
	}
	named, ok := derefNamed(tv.Type)
	if !ok || named.Obj().Name() != "AuditLog" {
		return "", false
	}
	return "the audit log", true
}

// derefNamed unwraps pointers down to a named type.
func derefNamed(t types.Type) (*types.Named, bool) {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt, true
		default:
			return nil, false
		}
	}
}

// allArgs returns every argument index of a call.
func allArgs(call *ast.CallExpr) []int {
	out := make([]int, len(call.Args))
	for i := range out {
		out[i] = i
	}
	return out
}

// Run implements Check.
func (*TimetaintCheck) Run(p *Package, rep *Reporter) {
	if !timetaintSpec.canFind(p) {
		return // no timing read or no run-identity sink: nothing can leak
	}
	ta := NewTaintAnalysis(p, timetaintSpec)
	ta.Findings(TaintTime, func(pos token.Pos, t Taint, sink string) {
		rep.Reportf(pos,
			"%s value flows into %s; run identity must be a pure function of (workload, policy, seed) — keep probe timing in internal/perf sinks",
			t.KindNames(), sink)
	})
}
