package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MaporderCheck flags map iteration that leaks Go's randomized
// iteration order into scheduling decisions or the audit trail. Ranging
// over a map is fine for pure reads and keyed lookups; it becomes a
// determinism bug the moment the loop body, in iteration order,
// accumulates results into a slice declared outside the loop, emits
// audit-log entries (directly or through any helper that transitively
// reaches the audit log), or writes output. The accepted fix is to
// collect and then sort with a deterministic comparator before use — a
// sort call reachable after the loop (CFG continuation, not merely the
// same block) silences the finding.
//
// The check is interprocedural in two directions, both over the
// package-local call graph:
//
//   - audit sinks: a call inside a map-range body to a function that
//     transitively records audit entries is as order-sensitive as a
//     direct AuditLog.add;
//   - carriers: a helper that returns a slice accumulated in map
//     iteration order taints its call sites — each caller must sort the
//     result before it escapes (return, append, audit, writer). The
//     helper's own range is also flagged and needs a justified
//     lint:ignore acknowledging that callers sort or are themselves
//     checked.
//
// Both propagations follow only static in-package edges (see CallGraph);
// order leaks through function values or interfaces are out of reach and
// remain the code reviewer's job.
type MaporderCheck struct{}

// maporderScopes mirror the stablesort scope: the decision paths.
var maporderScopes = []string{"pjs/internal/sched", "pjs/internal/sim"}

// Name implements Check.
func (*MaporderCheck) Name() string { return "maporder" }

// Doc implements Check.
func (*MaporderCheck) Doc() string {
	return "map range in decision paths must not accumulate, audit or write in iteration order without a sort"
}

// Applies implements Check.
func (*MaporderCheck) Applies(pkgPath string) bool {
	for _, s := range maporderScopes {
		if pkgPath == s || strings.HasPrefix(pkgPath, s+"/") {
			return true
		}
	}
	return false
}

// Run implements Check.
func (*MaporderCheck) Run(p *Package, rep *Reporter) {
	auditors := auditCallers(p)
	carriers := sliceCarriers(p)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cfg := p.FuncCFG(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.RangeStmt:
					if !rangesOverMap(p, n) {
						return true
					}
					reason := orderSensitiveBody(p, n, auditors)
					if reason == "" || sortReachableAfter(p, cfg, n, nil) {
						return true
					}
					rep.Reportf(n.Pos(),
						"map iteration order leaks into %s; sort deterministically before use or iterate sorted keys", reason)
				case *ast.AssignStmt:
					callee, obj := carrierAssign(p, n, carriers)
					if callee == nil {
						return true
					}
					if sortReachableAfter(p, cfg, n, obj) {
						return true
					}
					if escapesUnsorted(p, cfg, n, obj) {
						rep.Reportf(n.Pos(),
							"helper %s returns a slice in map-iteration order; sort it before use", callee.Name())
					}
				}
				return true
			})
		}
	}
}

// rangesOverMap reports whether the range statement iterates a map.
func rangesOverMap(p *Package, rs *ast.RangeStmt) bool {
	tv, ok := p.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// orderSensitiveBody reports what the loop body does that is sensitive
// to iteration order: appending to a slice declared outside the loop,
// recording audit-log entries (directly or through a helper that
// transitively audits), or writing output. It returns "" when the body
// is order-insensitive.
func orderSensitiveBody(p *Package, rs *ast.RangeStmt, auditors map[*types.Func]bool) string {
	reason := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
					continue
				}
				for _, lhs := range n.Lhs {
					if identDeclaredBefore(p, lhs, rs) {
						reason = "a slice accumulated across iterations"
					}
				}
			}
		case *ast.CallExpr:
			if desc, ok := auditEmitSink(p, n); ok {
				reason = desc
				return false
			}
			if isWriterCall(p, n) {
				reason = "a writer"
				return false
			}
			if callee := p.CalleeOf(n); callee != nil && auditors[callee] {
				reason = "the audit log via call to " + callee.Name()
				return false
			}
		}
		return true
	})
	return reason
}

// identDeclaredBefore reports whether e is an identifier whose
// declaration precedes the range statement (i.e. the variable outlives
// the loop).
func identDeclaredBefore(p *Package, e ast.Expr, rs *ast.RangeStmt) bool {
	ident, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.Info.Uses[ident]
	if obj == nil {
		obj = p.Info.Defs[ident]
	}
	return obj != nil && obj.Pos() < rs.Pos()
}

// isWriterCall reports whether the call writes output directly: the
// fmt.Fprint family aimed at an io.Writer.
func isWriterCall(p *Package, call *ast.CallExpr) bool {
	path, name, ok := pkgFunc(p, call)
	return ok && path == "fmt" && strings.HasPrefix(name, "Fprint")
}

// auditCallers returns the set of package functions from which an
// audit-log emit is statically reachable (the emitting functions
// themselves included).
func auditCallers(p *Package) map[*types.Func]bool {
	g := p.CallGraph()
	seed := map[*types.Func]bool{}
	g.Nodes(func(node *CallNode) {
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if _, emit := auditEmitSink(p, call); emit {
					seed[node.Fn] = true
					return false
				}
			}
			return true
		})
	})
	return g.transitiveClosure(seed)
}

// sliceCarriers returns the package functions that hand a slice built in
// map-iteration order to their caller: a single slice result, a
// map-range in the body accumulating into a function-local variable
// with no sort reachable afterwards, and a return of that variable —
// plus, by fixpoint, any function that returns a carrier's result
// directly.
func sliceCarriers(p *Package) map[*types.Func]bool {
	g := p.CallGraph()
	carriers := map[*types.Func]bool{}
	g.Nodes(func(node *CallNode) {
		if isBaseCarrier(p, node) {
			carriers[node.Fn] = true
		}
	})
	for changed := true; changed; {
		changed = false
		g.Nodes(func(node *CallNode) {
			if carriers[node.Fn] || !returnsSingleSlice(node.Fn) {
				return
			}
			ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok || len(ret.Results) != 1 {
					return true
				}
				call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := p.CalleeOf(call); callee != nil && carriers[callee] {
					carriers[node.Fn] = true
					changed = true
				}
				return true
			})
		})
	}
	return carriers
}

// returnsSingleSlice reports whether the function's signature has
// exactly one result and it is a slice.
func returnsSingleSlice(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	_, isSlice := sig.Results().At(0).Type().Underlying().(*types.Slice)
	return isSlice
}

// isBaseCarrier reports whether the function directly builds and returns
// a map-ordered slice.
func isBaseCarrier(p *Package, node *CallNode) bool {
	if !returnsSingleSlice(node.Fn) {
		return false
	}
	fd := node.Decl
	cfg := p.FuncCFG(fd)
	carrier := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if carrier {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !rangesOverMap(p, rs) {
			return true
		}
		acc := accumulatedVar(p, rs, fd)
		if acc == nil || sortReachableAfter(p, cfg, rs, acc) {
			return true
		}
		// Is the accumulated variable what the function returns?
		ast.Inspect(fd.Body, func(m ast.Node) bool {
			ret, ok := m.(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				return true
			}
			if id, ok := ast.Unparen(ret.Results[0]).(*ast.Ident); ok && p.Info.Uses[id] == acc {
				carrier = true
			}
			return true
		})
		return true
	})
	return carrier
}

// accumulatedVar returns the object of a function-local slice variable
// that the range body appends into, or nil.
func accumulatedVar(p *Package, rs *ast.RangeStmt, fd *ast.FuncDecl) types.Object {
	var acc types.Object
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
				continue
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.Info.Uses[id]
				if obj == nil {
					obj = p.Info.Defs[id]
				}
				if obj != nil && obj.Pos() > fd.Pos() && obj.Pos() < rs.Pos() {
					acc = obj
				}
			}
		}
		return true
	})
	return acc
}

// carrierAssign recognizes `x := f(...)` / `x = f(...)` where f is a
// carrier, returning the callee and x's object.
func carrierAssign(p *Package, as *ast.AssignStmt, carriers map[*types.Func]bool) (*types.Func, types.Object) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, nil
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	callee := p.CalleeOf(call)
	if callee == nil || !carriers[callee] {
		return nil, nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, nil
	}
	obj := p.Info.Defs[id]
	if obj == nil {
		obj = p.Info.Uses[id]
	}
	if obj == nil {
		return nil, nil
	}
	return callee, obj
}

// sortReachableAfter reports whether a deterministic sort runs in the
// continuation of stmt. With obj == nil any sorter call counts; with an
// object, the sort's arguments must mention it.
func sortReachableAfter(p *Package, cfg *CFG, stmt ast.Stmt, obj types.Object) bool {
	found := false
	cfg.ReachableAfter(stmt, func(s ast.Stmt) {
		if found {
			return
		}
		call := callOfStmt(s)
		if call == nil || !isSorter(p, call) {
			return
		}
		if obj == nil || mentionsObject(p, call.Args, obj) {
			found = true
		}
	})
	return found
}

// callOfStmt extracts the call expression of an expression, defer or go
// statement.
func callOfStmt(s ast.Stmt) *ast.CallExpr {
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, _ := ast.Unparen(s.X).(*ast.CallExpr)
		return call
	case *ast.DeferStmt:
		return s.Call
	case *ast.GoStmt:
		return s.Call
	}
	return nil
}

// isSorter reports whether the call actually sorts: the sort package's
// sorting entry points or the slices package's Sort family.
func isSorter(p *Package, call *ast.CallExpr) bool {
	path, name, ok := pkgFunc(p, call)
	if !ok {
		return false
	}
	switch path {
	case "sort":
		switch name {
		case "Slice", "SliceStable", "Sort", "Stable", "Ints", "Strings", "Float64s":
			return true
		}
	case "slices":
		switch name {
		case "Sort", "SortFunc", "SortStable", "SortStableFunc":
			return true
		}
	}
	return false
}

// mentionsObject reports whether any of the expressions references the
// object through an identifier.
func mentionsObject(p *Package, exprs []ast.Expr, obj types.Object) bool {
	for _, e := range exprs {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
				found = true
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// escapesUnsorted reports whether the carrier result obj leaves the
// function (or feeds an order-sensitive sink) somewhere in the
// continuation of its defining statement: returned directly, appended
// onward, handed to an audit emit, or written out. A keyed or reduced
// use (len(x), x[i]) is not an escape.
func escapesUnsorted(p *Package, cfg *CFG, stmt ast.Stmt, obj types.Object) bool {
	escapes := false
	directIdent := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && p.Info.Uses[id] == obj
	}
	cfg.ReachableAfter(stmt, func(s ast.Stmt) {
		if escapes {
			return
		}
		if ret, ok := s.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				if directIdent(r) {
					escapes = true
					return
				}
			}
		}
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			_, sink := auditEmitSink(p, call)
			sink = sink || isWriterCall(p, call)
			if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" {
				sink = true
			}
			if !sink {
				return true
			}
			for _, a := range call.Args {
				if directIdent(a) {
					escapes = true
					return false
				}
			}
			return true
		})
	})
	return escapes
}
