package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// DetrandCheck keeps every random stream replayable from its seed. It
// has three rules, all in non-test code:
//
//   - No package-level math/rand function. rand.Intn, rand.Float64, ...
//     draw from a process-global generator whose sequence interleaves
//     across every caller, so two runs of the same experiment diverge
//     the moment any other code path consumes randomness.
//   - The constructors (New, NewSource, NewZipf, NewPCG, NewChaCha8)
//     are called only under pjs/internal/fault and pjs/internal/workload,
//     the two packages that build the simulator's streams from a
//     configuration seed (workload.Generate: rand.New(rand.NewSource(
//     opt.Seed))). Everything else takes its randomness from them, so a
//     seed read from the clock or a flag-free source cannot start a
//     stream of its own.
//   - No package imports unsafe or reflect, the two ways to turn pointer
//     identity into a number that could seed a stream or order a
//     decision.
//
// Clock seeds under internal/ are already ruled out by wallclock, and
// map-ordered seeds in the stream packages by maporder.
type DetrandCheck struct{}

// detrandConstructors are the math/rand entry points that build an
// explicit generator rather than consuming the global one.
var detrandConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// detrandStreamScopes are the packages allowed to build generators.
var detrandStreamScopes = []string{"pjs/internal/fault", "pjs/internal/workload"}

// Name implements Check.
func (*DetrandCheck) Name() string { return "detrand" }

// Doc implements Check.
func (*DetrandCheck) Doc() string {
	return "no global math/rand functions, RNG constructors only in internal/fault and internal/workload, no unsafe or reflect"
}

// Applies implements Check. Every package of the module is in scope;
// test files are already excluded at load time.
func (*DetrandCheck) Applies(string) bool { return true }

// Run implements Check.
func (*DetrandCheck) Run(p *Package, rep *Reporter) {
	streams := inScope(p.Path, detrandStreamScopes)
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "unsafe" || path == "reflect" {
				rep.Reportf(imp.Pos(),
					"import of %s can turn pointer identity into a number; a seed or order derived from it varies between runs", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name, ok := pkgFunc(p, call)
			switch {
			case !ok || !isMathRand(path) || (detrandConstructors[name] && streams):
			case detrandConstructors[name]:
				rep.Reportf(call.Pos(),
					"rand.%s builds an RNG outside pjs/internal/fault and pjs/internal/workload; take the stream from there, seeded from configuration", name)
			default:
				rep.Reportf(call.Pos(),
					"rand.%s uses the process-global source; draw from an explicitly seeded *rand.Rand instead", name)
			}
			return true
		})
	}
}

// isMathRand matches both math/rand and math/rand/v2.
func isMathRand(path string) bool {
	return path == "math/rand" || strings.HasPrefix(path, "math/rand/")
}
