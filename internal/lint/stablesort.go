package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// StablesortCheck flags unstable sorts in scheduler and engine code.
// sort.Slice and slices.SortFunc are unstable pdqsorts: elements
// comparing equal land in an order that depends on slice length and
// pivot choice, so a comparator keyed only on, say, projected release
// time silently breaks bit-level determinism the first time two jobs
// tie. Policies must either use a stable sort (sort.SliceStable,
// slices.SortStableFunc: ties keep deterministic insertion order) or
// give the comparator a total order whose final clause breaks ties by
// job ID — the easy/speculative shadow computations were exactly this
// bug before this check existed.
//
// A sort.Slice call is accepted when its comparator's final clause is an
// ID comparison (a binary < or > whose operand mentions an ID field). A
// slices.SortFunc call is accepted when its comparator ends in one of
// the three-way forms over an ID: a difference (a.ID - b.ID), a
// cmp.Compare call, or an if/return chain whose last condition compares
// IDs. The comparator is a func literal or a function of the same
// package named by a plain identifier. slices.Sort has no comparator;
// it is accepted only on integer and string elements, where equal
// elements are indistinguishable. Anything else is reported.
type StablesortCheck struct{}

// stablesortScopes are the import-path prefixes where scheduling
// decisions are made and the rule is enforced: the policies (the SS/TSS
// victim rules among them) and the driver, the engine, and the job
// package's shared priority sort.
var stablesortScopes = []string{"pjs/internal/sched", "pjs/internal/sim", "pjs/internal/job"}

// Name implements Check.
func (*StablesortCheck) Name() string { return "stablesort" }

// Doc implements Check.
func (*StablesortCheck) Doc() string {
	return "scheduler/engine sorts must be stable or break ties by job ID"
}

// Applies implements Check.
func (*StablesortCheck) Applies(pkgPath string) bool {
	return inScope(pkgPath, stablesortScopes)
}

// Run implements Check.
func (*StablesortCheck) Run(p *Package, rep *Reporter) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name, ok := pkgFunc(p, call)
			if !ok {
				return true
			}
			switch {
			case path == "sort" && name == "Slice":
				if len(call.Args) == 2 && lessBreaksTiesByID(p, call.Args[1]) {
					return true
				}
				rep.Reportf(call.Pos(),
					"sort.Slice is unstable; use sort.SliceStable or end the comparator with a job-ID tie-break")
			case path == "slices" && name == "SortFunc":
				if len(call.Args) == 2 && cmpBreaksTiesByID(p, call.Args[1]) {
					return true
				}
				rep.Reportf(call.Pos(),
					"slices.SortFunc is unstable; use slices.SortStableFunc or end the comparator with a job-ID tie-break")
			case path == "slices" && name == "Sort":
				if len(call.Args) == 1 && indistinguishableWhenEqual(p.Info.TypeOf(call.Args[0])) {
					return true
				}
				rep.Reportf(call.Pos(),
					"slices.Sort is unstable on elements that compare equal but differ; use slices.SortFunc with a job-ID tie-break")
			}
			return true
		})
	}
}

// lessBreaksTiesByID reports whether the sort.Slice less-function
// argument is a comparator whose final clause — the expression of its
// last return statement — is a strict comparison involving an ID field
// or variable. That shape means equal keys cannot compare equal, so the
// sort order is total and instability cannot reorder anything.
func lessBreaksTiesByID(p *Package, arg ast.Expr) bool {
	ret := finalReturn(comparatorBody(p, arg))
	if ret == nil {
		return false
	}
	bin, ok := ret.Results[0].(*ast.BinaryExpr)
	if !ok || (bin.Op != token.LSS && bin.Op != token.GTR) {
		return false
	}
	return mentionsID(bin.X) || mentionsID(bin.Y)
}

// cmpBreaksTiesByID is lessBreaksTiesByID for a three-way comparator:
// the comparator must end in `return a.ID - b.ID`, in
// `return cmp.Compare(a.ID, b.ID)`, or in an if/return chain whose last
// if compares IDs (`if a.ID < b.ID { return -1 }; return 1`).
func cmpBreaksTiesByID(p *Package, arg ast.Expr) bool {
	body := comparatorBody(p, arg)
	ret := finalReturn(body)
	if ret == nil {
		return false
	}
	switch e := ret.Results[0].(type) {
	case *ast.BinaryExpr:
		if e.Op == token.SUB && (mentionsID(e.X) || mentionsID(e.Y)) {
			return true
		}
	case *ast.CallExpr:
		if path, name, ok := pkgFunc(p, e); ok && path == "cmp" && name == "Compare" && len(e.Args) == 2 &&
			(mentionsID(e.Args[0]) || mentionsID(e.Args[1])) {
			return true
		}
	}
	if len(body) < 2 {
		return false
	}
	prev, ok := body[len(body)-2].(*ast.IfStmt)
	if !ok || prev.Else != nil || len(prev.Body.List) == 0 {
		return false
	}
	if _, ok := prev.Body.List[len(prev.Body.List)-1].(*ast.ReturnStmt); !ok {
		return false
	}
	cond, ok := prev.Cond.(*ast.BinaryExpr)
	return ok && cond.Op != token.LAND && cond.Op != token.LOR && (mentionsID(cond.X) || mentionsID(cond.Y))
}

// comparatorBody returns the statements of a sort comparator: the body
// of a func literal, or of the in-package function a plain identifier
// names. Any other comparator cannot be inspected and yields nil.
func comparatorBody(p *Package, arg ast.Expr) []ast.Stmt {
	switch e := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return e.Body.List
	case *ast.Ident:
		if fn, ok := p.Info.Uses[e].(*types.Func); ok {
			if n := p.CallGraph().Node(fn); n != nil {
				return n.Decl.Body.List
			}
		}
	}
	return nil
}

// finalReturn returns the comparator's last statement when body ends in
// a single-result return, else nil.
func finalReturn(body []ast.Stmt) *ast.ReturnStmt {
	if len(body) == 0 {
		return nil
	}
	ret, ok := body[len(body)-1].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	return ret
}

// indistinguishableWhenEqual reports whether t is a slice of integers or
// strings: elements that compare equal are then identical, so an
// unstable sort cannot produce an observably different order. Floats
// are excluded (-0 and +0 compare equal, NaNs are unordered).
func indistinguishableWhenEqual(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsString) != 0
}

// mentionsID reports whether the expression references an identifier or
// field whose name is ID-like ("ID", "id", "JobID", ...).
func mentionsID(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		var name string
		switch n := n.(type) {
		case *ast.SelectorExpr:
			name = n.Sel.Name
		case *ast.Ident:
			name = n.Name
		default:
			return true
		}
		if name == "ID" || name == "id" || strings.HasSuffix(name, "ID") || strings.HasSuffix(name, "Id") {
			found = true
		}
		return true
	})
	return found
}
