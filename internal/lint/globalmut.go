package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GlobalmutCheck forbids mutable package-level state in the decision
// path. A package-level var in internal/sched, internal/sim or
// internal/cluster is hidden state shared across runs in one process:
// two back-to-back simulations in the same test binary would observe
// each other, breaking the bit-determinism the paper's tables rest on.
// State must live on the Engine/Scheduler/Machine values that a run
// owns, or in an explicitly registered registry (obs.Registry style)
// with a justified //lint:ignore at the declaration.
//
// Sentinel error values (`var ErrDeadlock = errors.New(...)`) are the
// one idiomatic exception: they are written once at init and only ever
// compared, so vars of type error are exempt.
type GlobalmutCheck struct{}

func (*GlobalmutCheck) Name() string { return "globalmut" }
func (*GlobalmutCheck) Doc() string {
	return "no mutable package-level state in decision-path packages (sched, sim, cluster)"
}

var globalmutScopes = []string{
	"pjs/internal/sched",
	"pjs/internal/sim",
	"pjs/internal/cluster",
}

func (*GlobalmutCheck) Applies(pkgPath string) bool {
	return inScope(pkgPath, globalmutScopes)
}

func (*GlobalmutCheck) Run(p *Package, rep *Reporter) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					obj, ok := p.Info.Defs[name].(*types.Var)
					if !ok || isErrorType(obj.Type()) {
						continue
					}
					rep.Reportf(name.Pos(),
						"package-level var %s is mutable global state in a decision-path package; make it a const, thread it through the run's own structs, or suppress with a justified lint:ignore if it is a write-once registry",
						name.Name)
				}
			}
		}
	}
}
