package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the taint layer over the dataflow substrate: a bitmask
// taint domain, a flow-sensitive intraprocedural propagation built on
// Solve, and interprocedural function summaries computed to fixpoint
// over the package call graph. The seedflow check is a thin
// configuration of this engine (a TaintSpec); maporder takes its
// carriers from the summaries under its own spec.
//
// Soundness posture: propagation over-approximates value flow (an
// unknown call taints its results with the union of its argument
// taints; assigning through a field or element taints the whole base
// object) and under-approximates aliasing and indirection (writes
// through pointers passed elsewhere, flow through closures, channels and
// interface dispatch are not tracked). The under-approximations are the
// same ones the call graph already documents; checks built here gate
// builds, so they trade a little completeness for zero false-positive
// noise on the shapes the simulator actually uses.

// Taint is a join-lattice element: the low bits are taint kinds, the
// high bits mark which parameter of the function under analysis a value
// derives from (used only while computing summaries). Join is bitwise
// or, so the lattice has finite height and the solver terminates.
type Taint uint64

const (
	// TaintTime marks values derived from the wall clock or the perf
	// clock: time.Now/Since/Until, a perf.Clock call, Probe.Snapshot.
	TaintTime Taint = 1 << iota
	// TaintMapIter marks values derived from map iteration order.
	TaintMapIter
	// TaintPointer marks values derived from pointer identity (uintptr /
	// unsafe.Pointer conversions, reflect pointer extractors).
	TaintPointer
)

// taintKindBits reserves the low bits for kinds; parameter-origin bits
// start above them.
const taintKindBits = 8

// taintKindMask selects the kind bits.
const taintKindMask Taint = (1 << taintKindBits) - 1

// taintMaxParams caps tracked parameter positions; parameters beyond the
// cap share the last bit (a harmless over-approximation).
const taintMaxParams = 64 - taintKindBits

// ParamTaint is the origin bit for parameter index i (receiver first for
// methods).
func ParamTaint(i int) Taint {
	if i >= taintMaxParams {
		i = taintMaxParams - 1
	}
	return 1 << (taintKindBits + uint(i))
}

// Kinds strips parameter-origin bits, leaving only taint kinds.
func (t Taint) Kinds() Taint { return t & taintKindMask }

// KindNames renders the kind bits for diagnostics ("timing", "map
// iteration order", ...).
func (t Taint) KindNames() string {
	var parts []string
	if t&TaintTime != 0 {
		parts = append(parts, "timing")
	}
	if t&TaintMapIter != 0 {
		parts = append(parts, "map iteration order")
	}
	if t&TaintPointer != 0 {
		parts = append(parts, "pointer identity")
	}
	if len(parts) == 0 {
		return "tainted"
	}
	return strings.Join(parts, " and ")
}

// TaintSpec configures one taint analysis: where taint enters and where
// it must never arrive. All hooks are optional.
type TaintSpec struct {
	// CallSource classifies a call (or conversion) expression as a taint
	// source and returns the kinds it introduces; 0 means not a source.
	CallSource func(p *Package, call *ast.CallExpr) Taint
	// RangeSource classifies the taint a range statement adds to its
	// iteration variables beyond the taint of the ranged operand.
	RangeSource func(p *Package, rng *ast.RangeStmt) Taint
	// AssignSource classifies the taint an assignment statement adds to
	// one of its targets beyond the taint of the value assigned.
	AssignSource func(p *Package, lhs ast.Expr) Taint
	// SinkCall identifies call-shaped sinks: args lists the argument
	// positions whose values must stay clean (nil = not a sink), desc
	// names the sink for diagnostics.
	SinkCall func(p *Package, call *ast.CallExpr) (args []int, desc string)
	// Sanitize identifies calls that clean values in place: it returns
	// an expression every variable of which the call leaves clean, or
	// nil. It applies to calls made as statements.
	Sanitize func(p *Package, call *ast.CallExpr) ast.Expr
}

// mapRangeSource yields TaintMapIter for a range over a map: seedflow's
// RangeSource, and maporder's test for a map range.
func mapRangeSource(p *Package, rng *ast.RangeStmt) Taint {
	if tv, ok := p.Info.Types[rng.X]; ok && tv.Type != nil {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return TaintMapIter
		}
	}
	return 0
}

// TaintSummary is the interprocedural behavior of one function, in the
// caller's terms: Ret is the taint reaching its return values (kind bits
// for taint generated inside, parameter bits for parameter-to-return
// flow), SinkParams marks parameters whose values reach a sink inside
// the function or transitively through its callees.
type TaintSummary struct {
	Ret        Taint
	SinkParams Taint
}

// TaintAnalysis is one spec applied to one package: summaries for every
// declared function, plus the machinery to report sink violations.
type TaintAnalysis struct {
	p    *Package
	spec *TaintSpec
	sums map[*types.Func]*TaintSummary
}

// taintEnv maps in-scope objects to their current taint. Absent = clean.
type taintEnv map[types.Object]Taint

func cloneEnv(e taintEnv) taintEnv {
	out := make(taintEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

func joinEnv(dst, src taintEnv) (taintEnv, bool) {
	changed := false
	for k, v := range src {
		if v&^dst[k] != 0 {
			dst[k] |= v
			changed = true
		}
	}
	return dst, changed
}

// canFind reports whether the package holds both a taint source (a
// call or range statement the spec classifies; any package, if the
// spec has an AssignSource, which this scan does not try) and a sink.
// Summaries are per package, so without a source no value carries a
// taint kind, and without a sink nothing is reported: Findings can
// find nothing.
func (spec *TaintSpec) canFind(p *Package) bool {
	source, sink := spec.AssignSource != nil, false
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				source = source || spec.CallSource != nil && spec.CallSource(p, n) != 0
				if !sink && spec.SinkCall != nil {
					args, _ := spec.SinkCall(p, n)
					sink = args != nil
				}
			case *ast.RangeStmt:
				source = source || spec.RangeSource != nil && spec.RangeSource(p, n) != 0
			}
			return !(source && sink)
		})
		if source && sink {
			return true
		}
	}
	return false
}

// NewTaintAnalysis computes interprocedural summaries for every function
// in the package under the given spec.
func NewTaintAnalysis(p *Package, spec *TaintSpec) *TaintAnalysis {
	ta := &TaintAnalysis{p: p, spec: spec, sums: map[*types.Func]*TaintSummary{}}
	ta.computeSummaries()
	return ta
}

// Summary returns the computed summary for a function declared in the
// package, or nil.
func (ta *TaintAnalysis) Summary(fn *types.Func) *TaintSummary { return ta.sums[fn] }

// sortedNodes returns the call-graph nodes in declaration order so the
// fixpoint sweep (and with it any tie-breaking) is deterministic.
func (ta *TaintAnalysis) sortedNodes() []*CallNode {
	var nodes []*CallNode
	ta.p.CallGraph().Nodes(func(n *CallNode) { nodes = append(nodes, n) })
	sort.Slice(nodes, func(i, k int) bool { return nodes[i].Decl.Pos() < nodes[k].Decl.Pos() })
	return nodes
}

// computeSummaries iterates all function summaries to a fixpoint.
// Summaries only grow (transfer is monotone in the summaries it reads),
// so the sweep terminates; recursion and three-hop chains settle the
// same way a loop does inside one function.
func (ta *TaintAnalysis) computeSummaries() {
	nodes := ta.sortedNodes()
	for _, n := range nodes {
		ta.sums[n.Fn] = &TaintSummary{}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			s := ta.summarize(n)
			old := ta.sums[n.Fn]
			s.Ret |= old.Ret
			s.SinkParams |= old.SinkParams
			if s.Ret != old.Ret || s.SinkParams != old.SinkParams {
				ta.sums[n.Fn] = s
				changed = true
			}
		}
	}
}

// summarize computes one function's summary against the current state of
// every other summary: parameters carry their origin bits, and whatever
// reaches a return or a sink is recorded.
func (ta *TaintAnalysis) summarize(n *CallNode) *TaintSummary {
	s := &TaintSummary{}
	ta.scan(n.Decl, ta.paramEnv(n.Decl),
		func(t Taint) { s.Ret |= t },
		func(_ token.Pos, t Taint, _ string) { s.SinkParams |= t &^ taintKindMask })
	return s
}

// paramEnv seeds the environment with one origin bit per parameter,
// receiver first. Index assignment must match callParamTaints.
func (ta *TaintAnalysis) paramEnv(fd *ast.FuncDecl) taintEnv {
	env := taintEnv{}
	i := 0
	bind := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				i++
				continue
			}
			for _, name := range f.Names {
				if obj := ta.p.Info.Defs[name]; obj != nil {
					env[obj] = ParamTaint(i)
				}
				i++
			}
		}
	}
	bind(fd.Recv)
	bind(fd.Type.Params)
	return env
}

// Findings runs the reporting pass: every function is re-analyzed with
// clean parameters, and each sink receiving taint of one of the asked
// kinds is delivered to report. Order is unspecified; the lint driver
// sorts diagnostics by position.
func (ta *TaintAnalysis) Findings(kinds Taint, report func(pos token.Pos, t Taint, sink string)) {
	for _, n := range ta.sortedNodes() {
		ta.scan(n.Decl, taintEnv{}, nil,
			func(pos token.Pos, t Taint, desc string) {
				if hit := t.Kinds() & kinds; hit != 0 {
					report(pos, hit, desc)
				}
			})
	}
}

// scan solves the function to fixpoint, then walks every reachable block
// once more with the settled entry facts, firing onReturn for each
// return statement's taint and onSink for each sink receiving taint.
func (ta *TaintAnalysis) scan(fd *ast.FuncDecl, init taintEnv,
	onReturn func(Taint),
	onSink func(pos token.Pos, t Taint, desc string),
) {
	g := ta.p.FlowGraph(fd)
	transfer := func(env taintEnv, n ast.Node) taintEnv {
		ta.transfer(env, n)
		return env
	}
	in := Solve(g, init, cloneEnv, joinEnv, transfer)
	results := ta.namedResults(fd)
	var sinks *sinkScan
	if onSink != nil {
		sinks = &sinkScan{ta: ta, onSink: onSink}
	}
	for _, blk := range g.Blocks {
		env, reachable := in[blk]
		if !reachable {
			continue
		}
		env = cloneEnv(env)
		for _, n := range blk.Nodes {
			if sinks != nil {
				sinks.node(env, n)
			}
			if onReturn != nil {
				if ret, ok := n.(*ast.ReturnStmt); ok {
					onReturn(ta.returnTaint(env, ret, results))
				}
			}
			ta.transfer(env, n)
		}
	}
}

// namedResults collects the objects of named result parameters, for bare
// returns.
func (ta *TaintAnalysis) namedResults(fd *ast.FuncDecl) []types.Object {
	if fd.Type.Results == nil {
		return nil
	}
	var out []types.Object
	for _, f := range fd.Type.Results.List {
		for _, name := range f.Names {
			if obj := ta.p.Info.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

func (ta *TaintAnalysis) returnTaint(env taintEnv, ret *ast.ReturnStmt, named []types.Object) Taint {
	var t Taint
	if len(ret.Results) == 0 {
		for _, obj := range named {
			t |= env[obj]
		}
		return t
	}
	for _, r := range ret.Results {
		t |= ta.exprTaint(env, r)
	}
	return t
}

// sinkScan is one scan's sink walker: node fires onSink for every
// call-shaped sink a block node evaluates, under env, the environment
// as it stands when the node executes.
type sinkScan struct {
	ta     *TaintAnalysis
	onSink func(token.Pos, Taint, string)
	env    taintEnv
}

func (s *sinkScan) node(env taintEnv, n ast.Node) {
	s.env = env
	for _, root := range evaluatedExprs(n) {
		if root != nil {
			ast.Walk(s, root)
		}
	}
}

// Visit implements ast.Visitor.
func (s *sinkScan) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.FuncLit:
		return nil // executes later; not analyzed here
	case *ast.CallExpr:
		s.ta.sinkCheck(s.env, n, s.onSink)
	}
	return s
}

// evaluatedExprs returns the expression roots a block node evaluates:
// the whole statement for straight-line nodes, only the header parts for
// control statements (their bodies live in other blocks).
func evaluatedExprs(n ast.Node) []ast.Node {
	switch n := n.(type) {
	case *ast.IfStmt:
		return []ast.Node{n.Cond}
	case *ast.ForStmt:
		if n.Cond == nil {
			return nil
		}
		return []ast.Node{n.Cond}
	case *ast.RangeStmt:
		return []ast.Node{n.X}
	case *ast.SwitchStmt:
		if n.Tag == nil {
			return nil
		}
		return []ast.Node{n.Tag}
	case *ast.TypeSwitchStmt:
		return []ast.Node{n.Assign}
	case *ast.SelectStmt:
		return nil
	default:
		return []ast.Node{n}
	}
}

// sinkCheck tests one call against the spec's call sinks and against the
// sink-parameter summaries of in-package callees.
func (ta *TaintAnalysis) sinkCheck(env taintEnv, call *ast.CallExpr, onSink func(token.Pos, Taint, string)) {
	if ta.spec.SinkCall != nil {
		if idx, desc := ta.spec.SinkCall(ta.p, call); idx != nil {
			for _, i := range idx {
				if i < 0 || i >= len(call.Args) {
					continue
				}
				if t := ta.exprTaint(env, call.Args[i]); t != 0 {
					onSink(call.Args[i].Pos(), t, desc)
				}
			}
			// A direct sink subsumes its own summary; reporting both
			// would double-count the same arguments.
			return
		}
	}
	callee := ta.p.CalleeOf(call)
	if callee == nil {
		return
	}
	sum := ta.sums[callee]
	if sum == nil || sum.SinkParams == 0 {
		return
	}
	args := ta.callParamTaints(env, call, callee)
	for i, at := range args {
		if at != 0 && sum.SinkParams&ParamTaint(i) != 0 {
			pos := call.Pos()
			if ai := i - paramOffset(callee); ai >= 0 && ai < len(call.Args) {
				pos = call.Args[ai].Pos()
			}
			onSink(pos, at, "a sink reached through "+callee.Name())
		}
	}
}

// paramOffset is 1 for methods (the receiver occupies index 0).
func paramOffset(fn *types.Func) int {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return 1
	}
	return 0
}

// callParamTaints evaluates the taint of every actual at a call site, in
// the callee's parameter index space (receiver first). Variadic actuals
// beyond the parameter count fold into the last index.
func (ta *TaintAnalysis) callParamTaints(env taintEnv, call *ast.CallExpr, callee *types.Func) []Taint {
	sig, _ := callee.Type().(*types.Signature)
	off := paramOffset(callee)
	n := off
	if sig != nil {
		n += sig.Params().Len()
	} else {
		n += len(call.Args)
	}
	if n == 0 {
		return nil
	}
	out := make([]Taint, n)
	if off == 1 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out[0] = ta.exprTaint(env, sel.X)
		}
	}
	for i, a := range call.Args {
		k := off + i
		if k >= n {
			k = n - 1
		}
		out[k] |= ta.exprTaint(env, a)
	}
	return out
}

// transfer applies one block node to the environment in place.
func (ta *TaintAnalysis) transfer(env taintEnv, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		ta.transferAssign(env, n)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			switch {
			case len(vs.Values) == 0:
				for _, name := range vs.Names {
					ta.bind(env, name, 0)
				}
			case len(vs.Values) == len(vs.Names):
				for i, name := range vs.Names {
					ta.bind(env, name, ta.exprTaint(env, vs.Values[i]))
				}
			default: // n, err := f()
				t := ta.exprTaint(env, vs.Values[0])
				for _, name := range vs.Names {
					ta.bind(env, name, t)
				}
			}
		}
	case *ast.RangeStmt:
		t := ta.exprTaint(env, n.X)
		if ta.spec.RangeSource != nil {
			t |= ta.spec.RangeSource(ta.p, n)
		}
		for _, v := range []ast.Expr{n.Key, n.Value} {
			if v != nil {
				ta.assignTo(env, v, t, n.Tok)
			}
		}
	case *ast.TypeSwitchStmt:
		ta.transferTypeSwitch(env, n)
	case *ast.ExprStmt:
		call, ok := ast.Unparen(n.X).(*ast.CallExpr)
		if !ok || ta.spec.Sanitize == nil {
			return
		}
		if clean := ta.spec.Sanitize(ta.p, call); clean != nil {
			// Cleaning is a strong update, like a plain reassignment.
			ast.Inspect(clean, func(nn ast.Node) bool {
				if id, ok := nn.(*ast.Ident); ok {
					ta.bind(env, id, 0)
				}
				_, lit := nn.(*ast.FuncLit)
				return !lit
			})
		}
	}
}

// transferTypeSwitch taints every clause's implicitly declared variable
// with the asserted operand's taint (joined across clauses — an
// over-approximation that keeps the header a single flow node).
func (ta *TaintAnalysis) transferTypeSwitch(env taintEnv, n *ast.TypeSwitchStmt) {
	var x ast.Expr
	switch a := n.Assign.(type) {
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			if tae, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
				x = tae.X
			}
		}
	case *ast.ExprStmt:
		if tae, ok := a.X.(*ast.TypeAssertExpr); ok {
			x = tae.X
		}
	}
	if x == nil {
		return
	}
	t := ta.exprTaint(env, x)
	if t == 0 {
		return
	}
	for _, c := range n.Body.List {
		if obj := ta.p.Info.Implicits[c]; obj != nil {
			env[obj] |= t
		}
	}
}

func (ta *TaintAnalysis) transferAssign(env taintEnv, a *ast.AssignStmt) {
	switch {
	case len(a.Lhs) == len(a.Rhs):
		ts := make([]Taint, len(a.Rhs))
		for i, r := range a.Rhs {
			ts[i] = ta.exprTaint(env, r)
		}
		for i, l := range a.Lhs {
			ta.assignTo(env, l, ts[i]|ta.assignSource(l), a.Tok)
		}
	case len(a.Rhs) == 1: // v, ok := ... / multi-value call
		t := ta.exprTaint(env, a.Rhs[0])
		for _, l := range a.Lhs {
			ta.assignTo(env, l, t|ta.assignSource(l), a.Tok)
		}
	}
}

// assignSource is the taint the spec's AssignSource adds to one
// assignment target.
func (ta *TaintAnalysis) assignSource(lhs ast.Expr) Taint {
	if ta.spec.AssignSource == nil {
		return 0
	}
	return ta.spec.AssignSource(ta.p, lhs)
}

// bind strong-updates an identifier's object to taint t.
func (ta *TaintAnalysis) bind(env taintEnv, id *ast.Ident, t Taint) {
	if id.Name == "_" {
		return
	}
	obj := ta.p.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	if t == 0 {
		delete(env, obj)
	} else {
		env[obj] = t
	}
}

// assignTo models one assignment target: plain identifiers get a strong
// update (compound tokens accumulate), everything else — field, index,
// dereference — weak-updates the base identifier's object.
func (ta *TaintAnalysis) assignTo(env taintEnv, lhs ast.Expr, t Taint, tok token.Token) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if tok == token.ASSIGN || tok == token.DEFINE {
			ta.bind(env, id, t)
			return
		}
		// op= : the old value participates.
		if id.Name == "_" {
			return
		}
		if obj := ta.p.Info.ObjectOf(id); obj != nil && t != 0 {
			env[obj] |= t
		}
		return
	}
	if t == 0 {
		return
	}
	if base := baseIdent(lhs); base != nil {
		if obj := ta.p.Info.ObjectOf(base); obj != nil {
			env[obj] |= t
		}
	}
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

// exprTaint evaluates the taint of an expression under env.
func (ta *TaintAnalysis) exprTaint(env taintEnv, e ast.Expr) Taint {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := ta.p.Info.ObjectOf(e); obj != nil {
			return env[obj]
		}
		return 0
	case *ast.ParenExpr:
		return ta.exprTaint(env, e.X)
	case *ast.StarExpr:
		return ta.exprTaint(env, e.X)
	case *ast.UnaryExpr:
		return ta.exprTaint(env, e.X)
	case *ast.BinaryExpr:
		return ta.exprTaint(env, e.X) | ta.exprTaint(env, e.Y)
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := ta.p.Info.Uses[id].(*types.PkgName); isPkg {
				return 0
			}
		}
		return ta.exprTaint(env, e.X)
	case *ast.IndexExpr:
		return ta.exprTaint(env, e.X)
	case *ast.IndexListExpr:
		return ta.exprTaint(env, e.X)
	case *ast.SliceExpr:
		return ta.exprTaint(env, e.X)
	case *ast.TypeAssertExpr:
		return ta.exprTaint(env, e.X)
	case *ast.CompositeLit:
		var t Taint
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				t |= ta.exprTaint(env, kv.Value)
			} else {
				t |= ta.exprTaint(env, el)
			}
		}
		return t
	case *ast.CallExpr:
		return ta.callTaint(env, e)
	}
	return 0
}

// callTaint evaluates a call (or conversion) result's taint: a spec
// source wins; a conversion passes its operand through; an in-package
// callee applies its summary (generated kinds plus parameter-to-return
// substitution); builtins that measure rather than carry (len, cap) are
// clean; any other call conservatively unions its operands.
func (ta *TaintAnalysis) callTaint(env taintEnv, call *ast.CallExpr) Taint {
	if ta.spec.CallSource != nil {
		if t := ta.spec.CallSource(ta.p, call); t != 0 {
			return t
		}
	}
	if tv, ok := ta.p.Info.Types[call.Fun]; ok && tv.IsType() {
		var t Taint
		for _, a := range call.Args {
			t |= ta.exprTaint(env, a)
		}
		return t
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := ta.p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap", "new", "make":
				return 0
			}
			var t Taint
			for _, a := range call.Args {
				t |= ta.exprTaint(env, a)
			}
			return t
		}
	}
	if callee := ta.p.CalleeOf(call); callee != nil {
		if sum, ok := ta.sums[callee]; ok {
			t := sum.Ret.Kinds()
			for i, at := range ta.callParamTaints(env, call, callee) {
				if sum.Ret&ParamTaint(i) != 0 {
					t |= at
				}
			}
			return t
		}
	}
	// External or dynamic call: information flows operands → results.
	var t Taint
	for _, a := range call.Args {
		t |= ta.exprTaint(env, a)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		t |= ta.exprTaint(env, sel.X)
	}
	return t
}
