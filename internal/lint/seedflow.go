package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SeedflowCheck guards where RNG seeds come from. Every random stream in
// the simulator — the fault injector's per-processor splitmix64 lanes,
// trace generation, workload synthesis — must be seeded from an
// explicitly threaded configuration value, so that a run is replayable
// from its flag set alone. A seed derived from map iteration order, from
// pointer identity (uintptr / unsafe.Pointer conversions, reflect
// pointer extractors) or from the clock varies across processes with
// identical configuration, which silently forks the event stream.
//
// detrand polices *which* RNG constructors may be called; this rule
// polices *what feeds them*, through the taint engine in taint.go:
// derivations are followed through locals, arithmetic (the splitmix64
// finalizer is pure bit-mixing — a tainted input taints its output) and
// in-package helper returns.
type SeedflowCheck struct{}

// Name implements Check.
func (*SeedflowCheck) Name() string { return "seedflow" }

// Doc implements Check.
func (*SeedflowCheck) Doc() string {
	return "RNG seeds must derive from threaded config seeds only, never map iteration, pointer values or time"
}

// Applies implements Check: the whole module — cmd/ synthesizes
// workloads and traces too, and a nondeterministic seed there forks
// results just as surely.
func (*SeedflowCheck) Applies(string) bool { return true }

// seedflowSinks maps RNG constructors to the indices of their seed
// arguments.
var seedflowSinks = map[string][]int{
	"NewSource":  {0},    // math/rand, math/rand/v2
	"Seed":       {0},    // math/rand (deprecated global)
	"NewPCG":     {0, 1}, // math/rand/v2
	"NewChaCha8": {0},    // math/rand/v2
}

// seedflowSpec wires the engine: sources are nondeterministic value
// origins, sinks are RNG seed positions.
var seedflowSpec = &TaintSpec{
	CallSource: func(p *Package, call *ast.CallExpr) Taint {
		if isTimingCall(p, call) {
			return TaintTime
		}
		if isPointerExtraction(p, call) {
			return TaintPointer
		}
		return 0
	},
	RangeSource: mapRangeSource,
	SinkCall: func(p *Package, call *ast.CallExpr) ([]int, string) {
		path, name, ok := pkgFunc(p, call)
		if !ok {
			return nil, ""
		}
		switch path {
		case "math/rand", "math/rand/v2":
		default:
			return nil, ""
		}
		idx, ok := seedflowSinks[name]
		if !ok {
			return nil, ""
		}
		return idx, "an RNG seed (" + path + "." + name + ")"
	},
}

// isPointerExtraction classifies conversions and calls that turn a
// pointer into a number: uintptr(...) and unsafe.Pointer(...)
// conversions, and the reflect.Value pointer extractors.
func isPointerExtraction(p *Package, call *ast.CallExpr) bool {
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		t := tv.Type
		if basic, ok := t.Underlying().(*types.Basic); ok {
			switch basic.Kind() {
			case types.Uintptr, types.UnsafePointer:
				return true
			}
		}
		return false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Pointer", "UnsafePointer", "UnsafeAddr":
			if tv, ok := p.Info.Types[sel.X]; ok && tv.Type != nil {
				if named, ok := derefNamed(tv.Type); ok &&
					named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "reflect" {
					return true
				}
			}
		}
	}
	return false
}

// Run implements Check.
func (*SeedflowCheck) Run(p *Package, rep *Reporter) {
	if !seedflowSpec.canFind(p) {
		return // no nondeterministic origin or no RNG seed
	}
	ta := NewTaintAnalysis(p, seedflowSpec)
	ta.Findings(TaintTime|TaintMapIter|TaintPointer, func(pos token.Pos, t Taint, sink string) {
		rep.Reportf(pos,
			"%s flows into %s; seeds must be threaded explicitly from configuration so runs replay from their flag set",
			t.KindNames(), sink)
	})
}
