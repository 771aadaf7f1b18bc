package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllocfreeCheck turns the runtime zero-allocation contracts
// (TestNilObserverEmitZeroAllocs, TestNilProbeZeroAllocs) into
// compile-time checks. A function carrying a
//
//	//lint:allocfree <condition>
//
// marker in its doc comment promises that, under the stated condition
// (the guarded fast path — "nil observer", "nil probe"), calling it
// performs no heap allocation. The check verifies the statically
// checkable half of that promise: every statement that can execute
// before the fast path's early return — including everything reachable
// through statically resolved in-package calls, each held to the same
// rule — must contain no detectable allocation site.
//
// The checked region is the prefix of the body up to and including the
// last top-level guard, where a guard is an else-less `if cond {
// return ... }` whose body is a single return: on the fast path one of
// the guards fires, so everything after the last guard is slow-path code
// where allocation is legitimate. A function with no guard promises the
// stronger contract — its whole body, recursively, is allocation-free
// (the right shape for pure leaf helpers like the watermark mixer).
//
// Flagged allocation sites: composite literals whose address is taken
// and slice/map literals (escaping composites), make/new, append
// (captured slices called out via def-use chains), closure creation,
// goroutine launches, fmt calls, string concatenation and
// string<->[]byte/[]rune conversions, and interface boxing of
// non-pointer-shaped call arguments. Calls that cannot be resolved
// statically (function values, interface methods, cross-package callees)
// are not followed — the runtime alloc tests remain the backstop for
// those.
type AllocfreeCheck struct{}

// allocfreeMarker is the doc-comment marker prefix.
const allocfreeMarker = "lint:allocfree"

// Name implements Check.
func (*AllocfreeCheck) Name() string { return "allocfree" }

// Doc implements Check.
func (*AllocfreeCheck) Doc() string {
	return "//lint:allocfree functions must have no statically detectable allocations on their guarded fast path"
}

// Applies implements Check.
func (*AllocfreeCheck) Applies(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, wallclockScope)
}

// Run implements Check.
func (c *AllocfreeCheck) Run(p *Package, rep *Reporter) {
	inDoc := map[token.Pos]bool{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, cm := range fd.Doc.List {
				cond, isMarker := allocfreeCondition(cm)
				if !isMarker {
					continue
				}
				inDoc[cm.Pos()] = true
				if cond == "" {
					rep.Reportf(cm.Pos(),
						"//lint:allocfree needs a condition describing the guarded fast path")
					continue
				}
				if fd.Body == nil {
					continue
				}
				checkAllocFree(p, rep, fd, map[*ast.FuncDecl]bool{}, nil)
			}
		}
	}
	// A marker anywhere else binds to nothing and checks nothing.
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if _, isMarker := allocfreeCondition(cm); isMarker && !inDoc[cm.Pos()] {
					rep.Reportf(cm.Pos(),
						"//lint:allocfree must sit in the doc comment of the function it covers")
				}
			}
		}
	}
}

// allocfreeCondition parses one comment: isMarker reports whether it is
// an allocfree marker at all, cond is its condition text ("" when
// missing).
func allocfreeCondition(cm *ast.Comment) (cond string, isMarker bool) {
	text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
	if !strings.HasPrefix(text, allocfreeMarker) {
		return "", false
	}
	fields := strings.Fields(text)
	if fields[0] != allocfreeMarker {
		return "", false // prose mentioning the marker
	}
	return strings.TrimSpace(strings.TrimPrefix(text, allocfreeMarker)), true
}

// checkAllocFree verifies one function's fast-path region and recurses
// into statically resolved in-package callees. chain carries the call
// path from the marked root for diagnostics.
func checkAllocFree(p *Package, rep *Reporter, fd *ast.FuncDecl, visited map[*ast.FuncDecl]bool, chain []string) {
	if visited[fd] {
		return
	}
	visited[fd] = true
	du := p.DefUse(fd)
	via := ""
	if len(chain) > 0 {
		via = " (reached via " + strings.Join(chain, " -> ") + ")"
	}
	flag := func(pos token.Pos, what string) {
		rep.Reportf(pos, "%s on the //lint:allocfree fast path of %s%s",
			what, fd.Name.Name, via)
	}
	var callees []*ast.FuncDecl
	for _, s := range allocfreeRegion(fd.Body.List) {
		scanAllocSites(p, du, s, flag, func(callee *ast.FuncDecl) {
			callees = append(callees, callee)
		})
	}
	next := append(chain, fd.Name.Name)
	for _, callee := range callees {
		checkAllocFree(p, rep, callee, visited, next)
	}
}

// allocfreeRegion returns the statements that can execute before the
// fast path's early return: the prefix up to and including the last
// top-level guard, or the whole body when no guard exists.
func allocfreeRegion(body []ast.Stmt) []ast.Stmt {
	last := -1
	for i, s := range body {
		if isReturnGuard(s) {
			last = i
		}
	}
	if last < 0 {
		return body
	}
	return body[:last+1]
}

// isReturnGuard matches the fast-path shape: an else-less, init-less if
// whose body is exactly one return statement.
func isReturnGuard(s ast.Stmt) bool {
	ifs, ok := s.(*ast.IfStmt)
	if !ok || ifs.Else != nil || ifs.Init != nil || len(ifs.Body.List) != 1 {
		return false
	}
	_, isRet := ifs.Body.List[0].(*ast.ReturnStmt)
	return isRet
}

// scanAllocSites walks one statement (bodies included, closure bodies
// excluded — the closure's creation is itself the finding) reporting
// every detectable allocation site and handing statically resolved
// in-package callees to onCallee.
func scanAllocSites(p *Package, du *DefUse, root ast.Stmt, flag func(token.Pos, string), onCallee func(*ast.FuncDecl)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			flag(n.Pos(), "closure creation allocates")
			return false
		case *ast.GoStmt:
			flag(n.Pos(), "launching a goroutine allocates")
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					flag(lit.Pos(), "escaping composite literal (&T{...}) allocates")
					// Do not re-flag the literal itself below.
					return !containsCompositeLit(lit.Elts)
				}
			}
			return true
		case *ast.CompositeLit:
			if tv, ok := p.Info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					flag(n.Pos(), "slice literal allocates its backing array")
				case *types.Map:
					flag(n.Pos(), "map literal allocates")
				}
			}
			return true
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := p.Info.Types[n]; ok && tv.Type != nil && isStringType(tv.Type) {
					flag(n.Pos(), "string concatenation allocates")
				}
			}
			return true
		case *ast.CallExpr:
			scanCallAlloc(p, du, n, flag, onCallee)
			return true
		}
		return true
	})
}

// containsCompositeLit reports whether any element is itself a composite
// literal (so &T{X: []int{...}} still flags the inner slice literal).
func containsCompositeLit(elts []ast.Expr) bool {
	for _, e := range elts {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.CompositeLit); ok {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// scanCallAlloc classifies one call expression's allocation behavior.
func scanCallAlloc(p *Package, du *DefUse, call *ast.CallExpr, flag func(token.Pos, string), onCallee func(*ast.FuncDecl)) {
	// Conversions: string<->[]byte/[]rune copy their payload.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isStringBytesConversion(p, tv.Type, call.Args[0]) {
			flag(call.Pos(), "string<->bytes conversion allocates a copy")
		}
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				flag(call.Pos(), "make allocates")
			case "new":
				flag(call.Pos(), "new allocates")
			case "append":
				what := "append may allocate a grown backing array"
				if len(call.Args) > 0 {
					if base := baseIdent(call.Args[0]); base != nil {
						if obj := p.Info.ObjectOf(base); obj != nil && !declaredIn(p, du, obj) {
							what = "append to a captured slice may allocate a grown backing array"
						}
					}
				}
				flag(call.Pos(), what)
			}
			return
		}
	}
	// fmt is allocation by design (boxing + buffer growth).
	if path, name, ok := pkgFunc(p, call); ok && path == "fmt" {
		flag(call.Pos(), "fmt."+name+" allocates")
		return
	}
	// Interface boxing of non-pointer-shaped arguments.
	flagBoxedArgs(p, call, flag)
	// Follow statically resolved in-package callees.
	if callee := p.CalleeOf(call); callee != nil {
		if node := p.CallGraph().Node(callee); node != nil {
			onCallee(node.Decl)
		}
	}
}

// declaredIn reports whether obj is declared by one of the function's
// own def sites — a parameter, := target, or var declaration — as
// opposed to a captured or package-level variable that is merely
// assigned here.
func declaredIn(p *Package, du *DefUse, obj types.Object) bool {
	for _, id := range du.Defs[obj] {
		if p.Info.Defs[id] == obj {
			return true
		}
	}
	return false
}

// isStringBytesConversion reports whether a conversion to target from
// the given operand crosses the string/byte-slice boundary.
func isStringBytesConversion(p *Package, target types.Type, arg ast.Expr) bool {
	argT := p.Info.Types[arg].Type
	if argT == nil {
		return false
	}
	return (isStringType(target) && isByteOrRuneSlice(argT)) ||
		(isByteOrRuneSlice(target) && isStringType(argT))
}

func isStringType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch basic.Kind() {
	case types.Uint8, types.Int32: // byte, rune
		return true
	}
	return false
}

// flagBoxedArgs reports call arguments converted to interface parameters
// when the concrete value is not pointer-shaped (those conversions copy
// the value to the heap).
func flagBoxedArgs(p *Package, call *ast.CallExpr, flag func(token.Pos, string)) {
	ftv, ok := p.Info.Types[call.Fun]
	if !ok || ftv.Type == nil {
		return
	}
	sig, ok := ftv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case params.Len() > 0:
			pt = params.At(params.Len() - 1).Type()
			if sig.Variadic() && call.Ellipsis == token.NoPos {
				if sl, ok := pt.Underlying().(*types.Slice); ok {
					pt = sl.Elem()
				}
			}
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := p.Info.Types[arg].Type
		if at == nil || isPointerShaped(at) {
			continue
		}
		if _, alreadyIface := at.Underlying().(*types.Interface); alreadyIface {
			continue
		}
		if basic, ok := at.Underlying().(*types.Basic); ok && basic.Kind() == types.UntypedNil {
			continue
		}
		flag(arg.Pos(), "interface boxing of a non-pointer value allocates")
	}
}

// isPointerShaped reports types whose interface representation needs no
// heap copy.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// DefUse records every definition and use of each identifier-addressed
// object in one function: Defs are the *ast.Ident sites where the object
// is (re)bound — declarations, parameters, assignment left-hand sides,
// range iteration variables — and Uses are every other mention.
// allocfree reads it to tell a slice declared in the function from a
// captured one. Anything not addressable by a plain identifier (fields,
// elements) is tracked at the granularity of its base identifier.
type DefUse struct {
	Defs map[types.Object][]*ast.Ident
	Uses map[types.Object][]*ast.Ident
}

// DefUse builds the def-use chains of a function declared in this
// package. Sites appear in source order.
func (p *Package) DefUse(fd *ast.FuncDecl) *DefUse {
	du := &DefUse{
		Defs: map[types.Object][]*ast.Ident{},
		Uses: map[types.Object][]*ast.Ident{},
	}
	assignLHS := map[*ast.Ident]bool{}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					assignLHS[id] = true
				}
			}
		case *ast.RangeStmt:
			for _, v := range []ast.Expr{n.Key, n.Value} {
				if id, ok := v.(*ast.Ident); ok {
					assignLHS[id] = true
				}
			}
		case *ast.Ident:
			if n.Name == "_" {
				return true
			}
			if obj := p.Info.Defs[n]; obj != nil && isVarObj(obj) {
				du.Defs[obj] = append(du.Defs[obj], n)
				return true
			}
			if obj := p.Info.Uses[n]; obj != nil && isVarObj(obj) {
				if assignLHS[n] {
					du.Defs[obj] = append(du.Defs[obj], n)
				} else {
					du.Uses[obj] = append(du.Uses[obj], n)
				}
			}
		}
		return true
	})
	return du
}

func isVarObj(obj types.Object) bool {
	_, ok := obj.(*types.Var)
	return ok
}

// baseIdent strips selectors, indexing, slicing, dereferences and parens
// down to the base identifier, or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
