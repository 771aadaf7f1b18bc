// Package lint is a stdlib-only static-analysis suite enforcing the
// simulator's determinism and invariant rules at build time. The paper's
// results (the SS/TSS slowdown tables, the 16-category breakdowns, the
// load-variation sweeps) are reproducible only if a run is
// bit-deterministic for a given seed, so the properties that guarantee
// that — virtual time only, seeded randomness only, order-stable sorts,
// no map-iteration-order leaks — are machine-checked rather than
// rediscovered per code review.
//
// The suite is built on go/parser, go/ast and go/types with a
// module-aware loader (see Loader) so that go.mod stays dependency-free.
// On top of the loader sits one shared whole-package structure, a
// type-resolved call graph (CallGraph, callgraph.go), built lazily per
// package and memoized, so every check analyzes the same type-checked
// artifacts; allocfree adds per-function def-use chains (DefUse).
//
// Each rule is a Check. The nine shipped checks are wallclock, detrand,
// stablesort, maporder, errwrite, exhaustive, globalmut, allocfree and
// staleignore (see their files for the precise semantics). Every rule
// is a property the code shows at the site: determinism is guarded by
// what may be written where (no clock read, no global or stray RNG, no
// unsafe or reflect, no map iteration in the decision paths), not by
// tracing values. Two invariants
// need no check of their own: exhaustive switches over sched.Action in
// the checker, the counters and the trace builder make a new audit
// action fail the build until all three handle it, and the wallclock
// ban plus the opaque perf.Span keep every timing value out of
// simulator code, so none can reach run identity.
// Diagnostics carry exact file:line:col positions and can be
// suppressed, one site at a time, with a justified directive:
//
//	//lint:ignore pjslint/<check> <reason>
//
// placed on the offending line or the line directly above it. A
// directive without a reason is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the check that fired, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: pjslint/%s: %s",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Check is one static-analysis rule.
type Check interface {
	// Name is the short rule identifier used in diagnostics and in
	// suppression directives (e.g. "wallclock").
	Name() string
	// Doc is a one-line description for the driver's -list output.
	Doc() string
	// Applies reports whether the rule is in scope for the package with
	// the given import path. Scoping is by path so that fixture packages
	// can opt in under synthetic paths.
	Applies(pkgPath string) bool
	// Run inspects the package and reports findings.
	Run(p *Package, rep *Reporter)
}

// AllChecks returns the full rule set in stable order.
func AllChecks() []Check {
	return []Check{
		&WallclockCheck{},
		&DetrandCheck{},
		&StablesortCheck{},
		&MaporderCheck{},
		&ErrwriteCheck{},
		&ExhaustiveCheck{},
		&GlobalmutCheck{},
		&AllocfreeCheck{},
		&StaleignoreCheck{},
	}
}

// CheckByName resolves a rule identifier.
func CheckByName(name string) (Check, bool) {
	for _, c := range AllChecks() {
		if c.Name() == name {
			return c, true
		}
	}
	return nil, false
}

// Reporter collects diagnostics for one check over one package.
type Reporter struct {
	check string
	fset  *token.FileSet
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	*r.diags = append(*r.diags, Diagnostic{
		Pos:     r.fset.Position(pos),
		Check:   r.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run applies every in-scope check to the package, filters findings
// through lint:ignore directives, and returns the surviving diagnostics
// sorted by position, then check, then message. Malformed directives
// are reported under the synthetic check name "directive". When the
// staleignore check is part of the run, well-formed directives that
// suppressed nothing — and name a check that actually ran — become
// findings themselves.
func Run(p *Package, checks []Check) []Diagnostic {
	var diags []Diagnostic
	for _, c := range checks {
		if !c.Applies(p.Path) {
			continue
		}
		c.Run(p, &Reporter{check: c.Name(), fset: p.Fset, diags: &diags})
	}
	ignores, bad := collectIgnores(p)
	diags = append(diags, bad...)
	kept := diags[:0]
	for _, d := range diags {
		if ignores.suppresses(d) {
			continue
		}
		kept = append(kept, d)
	}
	if staleignoreActive(p, checks) {
		ran := map[string]bool{}
		for _, c := range checks {
			if c.Applies(p.Path) {
				ran[c.Name()] = true
			}
		}
		for _, ent := range ignores.stale(ran) {
			d := Diagnostic{
				Pos:   ent.pos,
				Check: "staleignore",
				Message: fmt.Sprintf(
					"lint:ignore pjslint/%s suppresses nothing; delete the stale directive", ent.check),
			}
			// One level of suppression applies to staleness findings too,
			// for the rare intentionally-preemptive directive.
			if !ignores.suppresses(d) {
				kept = append(kept, d)
			}
		}
	}
	sort.Slice(kept, func(i, k int) bool {
		if kept[i].Pos.Filename != kept[k].Pos.Filename {
			return kept[i].Pos.Filename < kept[k].Pos.Filename
		}
		if kept[i].Pos.Line != kept[k].Pos.Line {
			return kept[i].Pos.Line < kept[k].Pos.Line
		}
		if kept[i].Pos.Column != kept[k].Pos.Column {
			return kept[i].Pos.Column < kept[k].Pos.Column
		}
		if kept[i].Check != kept[k].Check {
			return kept[i].Check < kept[k].Check
		}
		return kept[i].Message < kept[k].Message
	})
	return kept
}

// staleignoreActive reports whether the staleignore rule is among the
// checks being run and in scope for the package.
func staleignoreActive(p *Package, checks []Check) bool {
	for _, c := range checks {
		if c.Name() == "staleignore" && c.Applies(p.Path) {
			return true
		}
	}
	return false
}

// ignoreKey identifies one suppression site: a file line and the check
// it silences.
type ignoreKey struct {
	file  string
	line  int
	check string
}

// ignoreEntry is the state of one well-formed directive: where it is,
// and whether it suppressed at least one diagnostic this run.
type ignoreEntry struct {
	pos   token.Position
	check string
	used  bool
}

type ignoreSet map[ignoreKey]*ignoreEntry

// suppresses reports whether d is covered by a directive on its own
// line or the line directly above, marking the matching directive used.
func (s ignoreSet) suppresses(d Diagnostic) bool {
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if ent, ok := s[ignoreKey{d.Pos.Filename, line, d.Check}]; ok {
			ent.used = true
			return true
		}
	}
	return false
}

// stale returns the unused directives whose named check was among the
// checks that ran (a directive for a check outside this run may simply
// not have had its chance), sorted by position for determinism. Unused
// staleignore directives are excluded: reporting them would make the
// preemptive-suppression escape hatch self-defeating.
func (s ignoreSet) stale(ran map[string]bool) []*ignoreEntry {
	var out []*ignoreEntry
	for _, ent := range s {
		if !ent.used && ent.check != "staleignore" && ran[ent.check] {
			out = append(out, ent)
		}
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].pos.Filename != out[k].pos.Filename {
			return out[i].pos.Filename < out[k].pos.Filename
		}
		return out[i].pos.Line < out[k].pos.Line
	})
	return out
}

// collectIgnores scans every comment in the package for lint:ignore
// directives. Well-formed directives land in the returned set; malformed
// ones (wrong check name, missing reason) become diagnostics so that a
// typo cannot silently disable enforcement.
func collectIgnores(p *Package) (ignoreSet, []Diagnostic) {
	set := ignoreSet{}
	var bad []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Diagnostic{
			Pos:     p.Fset.Position(pos),
			Check:   "directive",
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(text)
				if fields[0] != "lint:ignore" || len(fields) < 2 ||
					!strings.HasPrefix(fields[1], "pjslint/") {
					// Prose that merely mentions the directive; the
					// diagnostic it failed to suppress will still fire.
					continue
				}
				name := strings.TrimPrefix(fields[1], "pjslint/")
				if _, ok := CheckByName(name); !ok {
					report(c.Pos(), "lint:ignore names unknown check %q", name)
					continue
				}
				if len(fields) < 3 {
					report(c.Pos(), "lint:ignore pjslint/%s needs a reason", name)
					continue
				}
				pos := p.Fset.Position(c.Pos())
				set[ignoreKey{pos.Filename, pos.Line, name}] = &ignoreEntry{pos: pos, check: name}
			}
		}
	}
	return set, bad
}

// pkgFunc resolves a call of the form pkg.Fn(...) where pkg is an
// imported package name; it returns the package's import path and the
// function name. ok is false for method calls and locally-defined
// selectors.
func pkgFunc(p *Package, call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	ident, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := p.Info.Uses[ident].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// inScope reports whether pkgPath is one of scopes or below one.
func inScope(pkgPath string, scopes []string) bool {
	for _, s := range scopes {
		if pkgPath == s || strings.HasPrefix(pkgPath, s+"/") {
			return true
		}
	}
	return false
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
