package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the intraprocedural dataflow substrate the taint checks
// (seedflow, maporder) are built on: a per-function
// basic-block flow graph, a generic forward worklist solver over a
// client-supplied join lattice, and def-use chains over AST
// identifiers. The flow graph is the package's only control-flow
// structure; maporder's "sort reachable after" walks it too.

// Block is one basic block: a maximal run of nodes executed in order,
// with edges to every possible successor block. Nodes are plain
// statements plus control-statement headers — an *ast.IfStmt node stands
// for "evaluate the condition", an *ast.RangeStmt node for "evaluate the
// operand and bind the iteration variables"; the bodies of control
// statements live in their own blocks. Clients consuming header nodes
// must only look at the header's evaluated parts (Cond/Tag/X), never
// descend into the body. A loop header (*ast.ForStmt, *ast.RangeStmt) is
// alone in its block, whose Succs are [body, after]: Succs[0] enters the
// body, Succs[1] leaves the loop (a for loop without a condition has no
// Succs[1]).
type Block struct {
	// Index is the creation order, stable across runs for a given
	// function (the builder walks the AST deterministically).
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// FlowGraph is the forward control-flow graph of one function body.
// Blocks with no path from Entry (code after an unconditional return,
// cases of an empty select) are present in Blocks but never reached by
// the solver.
//
// Approximations, all safe for taint (they only merge more states, never
// fewer): labeled break/continue target the innermost enclosing
// construct, and goto ends its block with no edge.
type FlowGraph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// FlowGraph returns the memoized flow graph for a function declared in
// this package, building it on first use.
func (p *Package) FlowGraph(fd *ast.FuncDecl) *FlowGraph {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fgs == nil {
		p.fgs = map[*ast.FuncDecl]*FlowGraph{}
	}
	if g, ok := p.fgs[fd]; ok {
		return g
	}
	g := buildFlowGraph(fd.Body)
	p.fgs[fd] = g
	return g
}

// fgBuilder holds the in-progress graph plus the break/continue target
// stacks of the enclosing loops, switches and selects.
type fgBuilder struct {
	g         *FlowGraph
	breaks    []*Block
	continues []*Block
}

func buildFlowGraph(body *ast.BlockStmt) *FlowGraph {
	b := &fgBuilder{g: &FlowGraph{}}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	end := b.stmts(body.List, b.g.Entry)
	b.edge(end, b.g.Exit)
	return b.g
}

func (b *fgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edge links from → to; a nil from means the predecessor path already
// terminated (return/branch) and there is nothing to link.
func (b *fgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// stmts lowers a statement list starting in cur and returns the block
// where control continues, or nil if every path terminated. Statements
// after a terminator land in a fresh block with no predecessors, so the
// solver never visits them — that is the unreachable-code behavior the
// solver tests pin.
func (b *fgBuilder) stmts(list []ast.Stmt, cur *Block) *Block {
	for _, s := range list {
		if cur == nil {
			cur = b.newBlock() // unreachable continuation
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

func (b *fgBuilder) stmt(s ast.Stmt, cur *Block) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(s.List, cur)

	case *ast.LabeledStmt:
		return b.stmt(s.Stmt, cur)

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		b.edge(cur, b.g.Exit)
		return nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if n := len(b.breaks); n > 0 {
				b.edge(cur, b.breaks[n-1])
			}
			return nil
		case token.CONTINUE:
			if n := len(b.continues); n > 0 {
				b.edge(cur, b.continues[n-1])
			}
			return nil
		case token.FALLTHROUGH:
			// Linked by the switch lowering, which sees the trailing
			// fallthrough and edges the clause end to the next clause.
			return cur
		}
		// goto: end the block with no edge (documented approximation).
		return nil

	case *ast.IfStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s) // header: Cond
		thenB := b.newBlock()
		b.edge(cur, thenB)
		after := b.newBlock()
		b.edge(b.stmts(s.Body.List, thenB), after)
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(cur, elseB)
			b.edge(b.stmt(s.Else, elseB), after)
		} else {
			b.edge(cur, after)
		}
		return after

	case *ast.ForStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		head.Nodes = append(head.Nodes, s) // header: Cond
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		backTo := head
		if s.Post != nil {
			post := b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
			backTo = post
		}
		b.breaks = append(b.breaks, after)
		b.continues = append(b.continues, backTo)
		bodyEnd := b.stmts(s.Body.List, body)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.edge(bodyEnd, backTo)
		return after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(cur, head)
		head.Nodes = append(head.Nodes, s) // header: X + iteration vars
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.breaks = append(b.breaks, after)
		b.continues = append(b.continues, head)
		bodyEnd := b.stmts(s.Body.List, body)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.edge(bodyEnd, head)
		return after

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s) // header: Tag
		return b.switchClauses(caseClauses(s.Body), cur, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s) // header: asserted operand + bindings
		return b.switchClauses(caseClauses(s.Body), cur, false)

	case *ast.SelectStmt:
		after := b.newBlock()
		b.breaks = append(b.breaks, after)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(cur, blk)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			b.edge(b.stmts(cc.Body, blk), after)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		return after

	default:
		// Assign, Decl, Expr, IncDec, Send, Go, Defer, Empty: straight-line.
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

func caseClauses(body *ast.BlockStmt) []*ast.CaseClause {
	out := make([]*ast.CaseClause, 0, len(body.List))
	for _, c := range body.List {
		out = append(out, c.(*ast.CaseClause))
	}
	return out
}

// switchClauses lowers the clause bodies of a (type) switch whose header
// already sits in cur. allowFallthrough is false for type switches.
func (b *fgBuilder) switchClauses(clauses []*ast.CaseClause, cur *Block, allowFallthrough bool) *Block {
	after := b.newBlock()
	b.breaks = append(b.breaks, after)
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	hasDefault := false
	for i, cc := range clauses {
		b.edge(cur, bodies[i])
		if cc.List == nil {
			hasDefault = true
		}
		end := b.stmts(cc.Body, bodies[i])
		if allowFallthrough && trailingFallthrough(cc.Body) && i+1 < len(bodies) {
			b.edge(end, bodies[i+1])
		} else {
			b.edge(end, after)
		}
	}
	if !hasDefault {
		b.edge(cur, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	return after
}

func trailingFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// Solve runs a forward worklist dataflow analysis over g and returns the
// fixpoint fact at the entry of every reachable block (unreachable
// blocks are absent from the result). The client supplies the lattice:
//
//   - entry is the fact at function entry;
//   - clone deep-copies a fact (the solver never aliases a fact it hands
//     to transfer with one it stores);
//   - join merges src into dst in place and reports whether dst changed —
//     it must be a monotone least-upper-bound for termination;
//   - transfer applies one block node (a plain statement or a control
//     header, see Block) and returns the updated fact; it may mutate its
//     argument.
//
// With a finite-height join lattice and a monotone transfer the loop
// terminates: block in-facts only ever grow, and a block is revisited
// only when a predecessor's out-fact added information.
func Solve[F any](g *FlowGraph, entry F,
	clone func(F) F,
	join func(dst, src F) (F, bool),
	transfer func(F, ast.Node) F,
) map[*Block]F {
	in := map[*Block]F{g.Entry: entry}
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		out := clone(in[blk])
		for _, n := range blk.Nodes {
			out = transfer(out, n)
		}
		for _, succ := range blk.Succs {
			cur, seen := in[succ]
			changed := false
			if !seen {
				in[succ] = clone(out)
				changed = true
			} else {
				in[succ], changed = join(cur, out)
			}
			if changed && !queued[succ] {
				work = append(work, succ)
				queued[succ] = true
			}
		}
	}
	return in
}

// DefUse records every definition and use of each identifier-addressed
// object in one function: Defs are the *ast.Ident sites where the object
// is (re)bound — declarations, parameters, assignment left-hand sides,
// range iteration variables — and Uses are every other mention. The
// taint engine's transfer functions resolve flow through exactly these
// objects; anything not addressable by a plain identifier (fields,
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
