package lint

import (
	"go/ast"
	"go/types"
	"slices"
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
// sort call reachable after the loop in the function's flow graph (not
// merely in the same block) silences the finding.
//
// The check is interprocedural in two directions:
//
//   - audit sinks: a call inside a map-range body to a function that
//     transitively records audit entries is as order-sensitive as a
//     direct AuditLog.add (auditCallers);
//   - carriers: a helper whose single slice result carries map
//     iteration order taints its call sites — each caller must sort the
//     result before it escapes (return, append, audit, writer). The
//     helper's own range is also flagged and needs a justified
//     lint:ignore acknowledging that callers sort or are themselves
//     checked. Carriers come from the taint engine's summaries under
//     maporderSpec, so a result forwarded through locals or through
//     other helpers is followed like any other value flow.
//
// Both follow only static in-package edges (see CallGraph); order leaks
// through function values or interfaces are out of reach and remain the
// code reviewer's job.
type MaporderCheck struct{}

// maporderScopes mirror the stablesort scope: the decision paths.
var maporderScopes = []string{"pjs/internal/sched", "pjs/internal/sim"}

// maporderSpec makes the order of appends a taint. An append in a map
// range to a slice that outlives the loop (one of accs, see
// orderSensitiveBody) gives the slice TaintMapIter: its order is the map's
// whatever the elements are, so out = append(out, vals[k]) is a source
// like appending k itself, while a scatter by key (out[k] = v) or a
// reduction (total += v) is none. A sort call cleans the variables its
// first argument names (through a conversion too, as in
// sort.Sort(byVal(ks))).
func maporderSpec(accs map[ast.Expr]bool) *TaintSpec {
	return &TaintSpec{
		AssignSource: func(_ *Package, lhs ast.Expr) Taint {
			if accs[lhs] {
				return TaintMapIter
			}
			return 0
		},
		Sanitize: func(p *Package, call *ast.CallExpr) ast.Expr {
			if !isSorter(p, call) || len(call.Args) == 0 {
				return nil
			}
			return call.Args[0]
		},
	}
}

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

// Run implements Check. Map ranges are the only source of map order:
// they are checked first, and the taint analysis that finds carriers is
// built only when some range accumulates a slice.
func (*MaporderCheck) Run(p *Package, rep *Reporter) {
	var auditors map[*types.Func]bool
	accs := map[ast.Expr]bool{}
	inspectFuncs(p, func(fd *ast.FuncDecl, n ast.Node) {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || mapRangeSource(p, rs) == 0 {
			return
		}
		if auditors == nil {
			auditors = auditCallers(p)
		}
		if reason := orderSensitiveBody(p, rs, auditors, accs); reason != "" && !sortReachableAfter(p, fd, rs, nil) {
			rep.Reportf(rs.Pos(),
				"map iteration order leaks into %s; sort deterministically before use or iterate sorted keys", reason)
		}
	})
	if len(accs) == 0 {
		return
	}
	ta := NewTaintAnalysis(p, maporderSpec(accs))
	inspectFuncs(p, func(fd *ast.FuncDecl, n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return
		}
		if callee, obj := carrierAssign(p, ta, as); callee != nil &&
			!sortReachableAfter(p, fd, as, obj) && escapesUnsorted(p, fd, as, obj) {
			rep.Reportf(as.Pos(),
				"helper %s returns a slice in map-iteration order; sort it before use", callee.Name())
		}
	})
}

// inspectFuncs calls visit for every node of every function body in the
// package, with the function's declaration.
func inspectFuncs(p *Package, visit func(fd *ast.FuncDecl, n ast.Node)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					visit(fd, n)
					return true
				})
			}
		}
	}
}

// orderSensitiveBody reports what the loop body does that is sensitive
// to iteration order: appending to a slice declared outside the loop,
// recording audit-log entries (directly or through a helper that
// transitively audits), or writing output. It returns "" when the body
// is order-insensitive. Every slice the body accumulates is added to
// accs.
func orderSensitiveBody(p *Package, rs *ast.RangeStmt, auditors map[*types.Func]bool, accs map[ast.Expr]bool) string {
	reason := ""
	because := func(r string) {
		if reason == "" {
			reason = r
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if slices.ContainsFunc(n.Rhs, isAppend) && identDeclaredBefore(p, lhs, rs) {
					accs[lhs] = true
					because("a slice accumulated across iterations")
				}
			}
		case *ast.CallExpr:
			if desc, ok := auditEmitSink(p, n); ok {
				because(desc)
			} else if isWriterCall(p, n) {
				because("a writer")
			} else if callee := p.CalleeOf(n); callee != nil && auditors[callee] {
				because("the audit log via call to " + callee.Name())
			}
		}
		return true
	})
	return reason
}

// isAppend reports whether e is a call of append.
func isAppend(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	return ok && fn.Name == "append"
}

// identDeclaredBefore reports whether e is an identifier whose
// declaration precedes the range statement (i.e. the variable outlives
// the loop).
func identDeclaredBefore(p *Package, e ast.Expr, rs *ast.RangeStmt) bool {
	ident, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.Info.ObjectOf(ident)
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
// themselves included). It is a call-graph closure rather than a taint
// sink: taint SinkParams follow argument flow, but a map-range body that
// calls an auditing helper is order-sensitive whatever it passes — the
// helper may record an entry built from receiver state alone.
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

// carrierAssign recognizes `x := f(...)` / `x = f(...)` where f is a
// carrier — a single slice result whose summary carries map order —
// returning the callee and x's object.
func carrierAssign(p *Package, ta *TaintAnalysis, as *ast.AssignStmt) (*types.Func, types.Object) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, nil
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	callee := p.CalleeOf(call)
	if callee == nil || !returnsSingleSlice(callee) {
		return nil, nil
	}
	if sum := ta.Summary(callee); sum == nil || sum.Ret&TaintMapIter == 0 {
		return nil, nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, nil
	}
	obj := p.Info.ObjectOf(id)
	if obj == nil {
		return nil, nil
	}
	return callee, obj
}

// reachableAfter hands visit every expression root that may be
// evaluated after stmt completes: the rest of stmt's block in fd's flow
// graph, then every block reachable from it, control headers through
// evaluatedExprs only. A range header completes into the block after
// its loop, so the loop's own body is visited only when an enclosing
// loop re-enters it. visit returns false to stop the walk.
func reachableAfter(p *Package, fd *ast.FuncDecl, stmt ast.Stmt, visit func(ast.Node) bool) {
	walk := func(nodes []ast.Node) bool {
		for _, n := range nodes {
			for _, root := range evaluatedExprs(n) {
				if root != nil && !visit(root) {
					return false
				}
			}
		}
		return true
	}
	var work []*Block
	for _, blk := range p.FlowGraph(fd).Blocks {
		if i := slices.Index(blk.Nodes, ast.Node(stmt)); i >= 0 {
			if !walk(blk.Nodes[i+1:]) {
				return
			}
			work = slices.Clone(blk.Succs) // the walk appends to work; the graph is shared
			if _, ok := stmt.(*ast.RangeStmt); ok {
				work = work[1:] // a loop header's Succs are [body, after] (see Block)
			}
			break
		}
	}
	seen := map[*Block]bool{}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[blk] {
			continue
		}
		seen[blk] = true
		if !walk(blk.Nodes) {
			return
		}
		work = append(work, blk.Succs...)
	}
}

// sortReachableAfter reports whether a deterministic sort runs after
// stmt. With obj == nil any sorter call counts; with an object, the
// sort's arguments must mention it.
func sortReachableAfter(p *Package, fd *ast.FuncDecl, stmt ast.Stmt, obj types.Object) bool {
	found := false
	reachableAfter(p, fd, stmt, func(root ast.Node) bool {
		ast.Inspect(root, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isSorter(p, call) &&
				(obj == nil || mentionsObject(p, call.Args, obj)) {
				found = true
			}
			return !found
		})
		return !found
	})
	return found
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
// function (or feeds an order-sensitive sink) after its defining
// statement: returned directly, appended onward, handed to an audit
// emit, or written out. A keyed or reduced use (len(x), x[i]) is not an
// escape.
func escapesUnsorted(p *Package, fd *ast.FuncDecl, stmt ast.Stmt, obj types.Object) bool {
	directIdent := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && p.Info.Uses[id] == obj
	}
	escapes := false
	reachableAfter(p, fd, stmt, func(root ast.Node) bool {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				if slices.ContainsFunc(n.Results, directIdent) {
					escapes = true
				}
			case *ast.CallExpr:
				_, sink := auditEmitSink(p, n)
				sink = sink || isWriterCall(p, n)
				sink = sink || isAppend(n)
				if sink && slices.ContainsFunc(n.Args, directIdent) {
					escapes = true
				}
			}
			return !escapes
		})
		return !escapes
	})
	return escapes
}

// auditEmitSink matches the audit-log append: a method named add or Add
// on a value whose named type is AuditLog. The driver's record funnel
// makes that call, so auditCallers marks record and every function that
// reaches it.
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
