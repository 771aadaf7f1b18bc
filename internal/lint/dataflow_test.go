package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// loadSrc type-checks one synthetic source file under the given import
// path and returns the package.
func loadSrc(t *testing.T, src, asPath string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "src.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, asPath)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fnDecl finds a function declaration by name.
func fnDecl(t *testing.T, p *Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

// lineSet is the test lattice: the set of source lines whose nodes have
// executed on some path. Union join, bounded by the function's line
// count, so every fixpoint terminates.
type lineSet map[int]bool

func cloneLines(s lineSet) lineSet {
	out := make(lineSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func joinLines(dst, src lineSet) (lineSet, bool) {
	changed := false
	for k := range src {
		if !dst[k] {
			dst[k] = true
			changed = true
		}
	}
	return dst, changed
}

// solveLines runs the solver over fd recording node lines.
func solveLines(p *Package, fd *ast.FuncDecl) (*FlowGraph, map[*Block]lineSet) {
	g := p.FlowGraph(fd)
	res := Solve(g, lineSet{}, cloneLines, joinLines, func(f lineSet, n ast.Node) lineSet {
		f[p.Fset.Position(n.Pos()).Line] = true
		return f
	})
	return g, res
}

// blockAtLine returns the block holding a node that starts on the given
// line.
func blockAtLine(t *testing.T, p *Package, g *FlowGraph, line int) *Block {
	t.Helper()
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if p.Fset.Position(n.Pos()).Line == line {
				return blk
			}
		}
	}
	t.Fatalf("no block with a node on line %d", line)
	return nil
}

// TestSolveJoinAtMerge pins join correctness: after an if/else, the
// merge block's entry fact carries both branches.
func TestSolveJoinAtMerge(t *testing.T) {
	p := loadSrc(t, `package s

func f(c bool) int {
	x := 0
	if c {
		x = 1
	} else {
		x = 2
	}
	return x
}
`, "pjs/fixture/solver")
	g, res := solveLines(p, fnDecl(t, p, "f"))
	ret := blockAtLine(t, p, g, 10)
	fact, ok := res[ret]
	if !ok {
		t.Fatal("return block not reached by the solver")
	}
	for _, line := range []int{4, 5, 6, 8} {
		if !fact[line] {
			t.Errorf("return block entry fact missing line %d: %v", line, fact)
		}
	}
}

// TestSolveLoopFixpoint pins termination and back-edge propagation: the
// loop body's effect reaches the loop head (and so the loop exit)
// through the back edge, and the solver reaches a fixpoint on a cyclic
// graph.
func TestSolveLoopFixpoint(t *testing.T) {
	p := loadSrc(t, `package s

func g(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}
`, "pjs/fixture/solver")
	fd := fnDecl(t, p, "g")
	fg, res := solveLines(p, fd)
	// The loop head is the block holding the ForStmt header node itself
	// (the init statement shares its line but lives in the predecessor).
	var forNode ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok && forNode == nil {
			forNode = f
		}
		return true
	})
	var head *Block
	for _, blk := range fg.Blocks {
		for _, n := range blk.Nodes {
			if n == forNode {
				head = blk
			}
		}
	}
	if head == nil {
		t.Fatal("no block holds the for-statement header node")
	}
	if fact := res[head]; !fact[6] {
		t.Errorf("loop head entry fact missing body line via back edge: %v", fact)
	}
	ret := blockAtLine(t, p, fg, 8)
	fact, ok := res[ret]
	if !ok {
		t.Fatal("loop exit block not reached by the solver")
	}
	for _, line := range []int{4, 5, 6} {
		if !fact[line] {
			t.Errorf("loop exit entry fact missing line %d: %v", line, fact)
		}
	}
}

// TestSolveUnreachableCode pins the unreachable-code contract:
// statements after an unconditional return land in a predecessor-less
// block the solver never visits.
func TestSolveUnreachableCode(t *testing.T) {
	p := loadSrc(t, `package s

func h(a int) int {
	return a
	a = 2
	return a
}
`, "pjs/fixture/solver")
	g, res := solveLines(p, fnDecl(t, p, "h"))
	dead := blockAtLine(t, p, g, 5)
	if _, visited := res[dead]; visited {
		t.Error("solver visited the unreachable block after return")
	}
	live := blockAtLine(t, p, g, 4)
	if _, visited := res[live]; !visited {
		t.Error("solver missed the reachable return block")
	}
}

// TestLoopHeaderSuccs pins the layout Block documents and maporder's
// "after this range" walk reads: a loop header is alone in its block,
// Succs[0] enters the body and Succs[1] leaves the loop.
func TestLoopHeaderSuccs(t *testing.T) {
	p := loadSrc(t, `package s

func l(m map[int]int, n int) int {
	s := 0
	for k := range m {
		s += k
	}
	s++
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}
`, "pjs/fixture/solver")
	fd := fnDecl(t, p, "l")
	g := p.FlowGraph(fd)
	for _, c := range []struct{ head, body, after int }{{5, 6, 8}, {9, 10, 12}} {
		var head *Block
		for _, blk := range g.Blocks {
			for _, n := range blk.Nodes {
				switch n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					if p.Fset.Position(n.Pos()).Line == c.head {
						head = blk
					}
				}
			}
		}
		if head == nil || len(head.Nodes) != 1 || len(head.Succs) != 2 {
			t.Fatalf("line %d: want a one-node header block with 2 successors, got %+v", c.head, head)
		}
		if head.Succs[0] != blockAtLine(t, p, g, c.body) {
			t.Errorf("line %d: Succs[0] is not the loop body", c.head)
		}
		if head.Succs[1] != blockAtLine(t, p, g, c.after) {
			t.Errorf("line %d: Succs[1] is not the block after the loop", c.head)
		}
	}
}

// TestReachableAfterLeavesGraph pins that maporder's walks leave the
// shared flow graph as they found it: every check of a package reads
// the one memoized graph, and an edge rewritten by one walk would hide
// a return from the taint analyses that run after it.
func TestReachableAfterLeavesGraph(t *testing.T) {
	p := loadSrc(t, `package s

func r(m map[int]int, c bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	if c {
		out = nil
	} else {
		out = out[:1]
	}
	return out
}
`, "pjs/fixture/solver")
	fd := fnDecl(t, p, "r")
	g := p.FlowGraph(fd)
	before := map[*Block][]*Block{}
	for _, blk := range g.Blocks {
		before[blk] = append([]*Block(nil), blk.Succs...)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if s, ok := n.(ast.Stmt); ok {
			sortReachableAfter(p, fd, s, nil)
		}
		return true
	})
	for _, blk := range g.Blocks {
		if !slices.Equal(blk.Succs, before[blk]) {
			t.Errorf("block %d: successors changed by the walk", blk.Index)
		}
	}
}

// TestDefUseChains pins the def/use classification: parameters and :=
// targets are defs, assignment left-hand sides are defs, everything
// else is a use.
func TestDefUseChains(t *testing.T) {
	p := loadSrc(t, `package s

func du(a int) int {
	b := a + 1
	b = b + a
	return b
}
`, "pjs/fixture/defuse")
	du := p.DefUse(fnDecl(t, p, "du"))
	counts := map[string][2]int{}
	for obj, ids := range du.Defs {
		c := counts[obj.Name()]
		c[0] = len(ids)
		counts[obj.Name()] = c
	}
	for obj, ids := range du.Uses {
		c := counts[obj.Name()]
		c[1] = len(ids)
		counts[obj.Name()] = c
	}
	want := map[string][2]int{
		"a": {1, 2}, // param def; used in both additions
		"b": {2, 2}, // := and = defs; used in b+a and return
	}
	for name, w := range want {
		if counts[name] != w {
			t.Errorf("%s: got defs/uses %v, want %v", name, counts[name], w)
		}
	}
}

// chainSpec marks calls of source() as timing sources and calls of
// consume() as sinks on their first argument.
var chainSpec = &TaintSpec{
	CallSource: func(p *Package, call *ast.CallExpr) Taint {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "source" {
			return TaintTime
		}
		return 0
	},
	SinkCall: func(p *Package, call *ast.CallExpr) (args []int, desc string) {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "consume" {
			return []int{0}, "the consumer"
		}
		return nil, ""
	},
}

// chainSrc is a two- and three-hop call chain plus a sink-parameter
// chain, exercised by the summary tests below.
const chainSrc = `package s

func source() int64 { return 1 }

func hop1(v int64) int64 { return v + 1 }

func hop2(v int64) int64 { return hop1(v) }

func hop3(v int64) int64 { return hop2(v) }

func consume(v int64) { _ = v }

func deliver(v int64) { consume(v) }

func drive() { deliver(source()) }
`

// TestTaintSummariesAcrossHops pins the interprocedural return
// summaries: a parameter flowing to the return propagates through two-
// and three-hop chains.
func TestTaintSummariesAcrossHops(t *testing.T) {
	p := loadSrc(t, chainSrc, "pjs/fixture/chain")
	ta := NewTaintAnalysis(p, chainSpec)
	for _, name := range []string{"hop1", "hop2", "hop3"} {
		fd := fnDecl(t, p, name)
		fn := p.Info.Defs[fd.Name].(*types.Func)
		sum := ta.Summary(fn)
		if sum == nil {
			t.Fatalf("%s: no summary", name)
		}
		if sum.Ret != ParamTaint(0) {
			t.Errorf("%s: Ret = %#x, want ParamTaint(0) = %#x", name, sum.Ret, ParamTaint(0))
		}
	}
	deliver := p.Info.Defs[fnDecl(t, p, "deliver").Name].(*types.Func)
	if sum := ta.Summary(deliver); sum.SinkParams != ParamTaint(0) {
		t.Errorf("deliver: SinkParams = %#x, want ParamTaint(0)", sum.SinkParams)
	}
	consume := p.Info.Defs[fnDecl(t, p, "consume").Name].(*types.Func)
	if sum := ta.Summary(consume); sum.Ret != 0 || sum.SinkParams != 0 {
		t.Errorf("consume: summary = %+v, want zero (its own body never calls the sink)", sum)
	}
}

// TestTaintFindingsThroughSinkSummary pins the reporting phase: the
// only finding is the tainted argument at drive's call into deliver,
// one hop above the syntactic sink.
func TestTaintFindingsThroughSinkSummary(t *testing.T) {
	p := loadSrc(t, chainSrc, "pjs/fixture/chain")
	ta := NewTaintAnalysis(p, chainSpec)
	type finding struct {
		line int
		sink string
	}
	var got []finding
	ta.Findings(TaintTime, func(pos token.Pos, tt Taint, sink string) {
		got = append(got, finding{p.Fset.Position(pos).Line, sink})
	})
	if len(got) != 1 {
		t.Fatalf("want exactly 1 finding, got %v", got)
	}
	if got[0].line != 15 || !strings.Contains(got[0].sink, "deliver") {
		t.Errorf("want finding at line 15 naming deliver, got %+v", got[0])
	}
}

// TestCanFind pins the early return of seedflow: a package needs a
// source — a timing call or perf-clock read, a pointer extraction, a
// map range, even one
// nested in a closure — and an RNG seed before its taint analysis is
// built.
func TestCanFind(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		want       bool
	}{
		{"no source", `import "math/rand"
func f(xs []int) *rand.Rand { s := int64(0); for _, x := range xs { s += int64(x) }; return rand.New(rand.NewSource(s)) }`, false},
		{"clock, no sink", `import "time"
func f() int64 { return time.Now().UnixNano() }`, false},
		{"clock and seed", `import ("math/rand"; "time")
func f() rand.Source { return rand.NewSource(time.Now().UnixNano()) }`, true},
		{"perf clock and seed", `import "math/rand"
type Clock func() int64
func f(c Clock) rand.Source { return rand.NewSource(c()) }`, true},
		{"closure map range and seed", `import "math/rand"
func f(m map[int]int64) func() rand.Source { return func() rand.Source { var s int64; for k := range m { s = int64(k) }; return rand.NewSource(s) } }`, true},
		{"pointer and seed", `import ("math/rand"; "unsafe")
func f(p *int) rand.Source { return rand.NewSource(int64(uintptr(unsafe.Pointer(p)))) }`, true},
	} {
		p := loadSrc(t, "package x\n"+tc.body+"\n", "pjs/internal/x")
		if got := seedflowSpec.canFind(p); got != tc.want {
			t.Errorf("%s: seedflow canFind = %v, want %v", tc.name, got, tc.want)
		}
	}
}
