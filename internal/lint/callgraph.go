package lint

import (
	"go/ast"
	"go/types"
)

// CallGraph is the type-resolved static call graph of one package: one
// node per function or method declared in the package, with edges to
// every function a node's body calls (in-package or not). Edges are
// resolved through go/types — a call through a package-qualified name,
// a plain identifier or a method selector all resolve to the same
// *types.Func the definition does — so renaming or aliasing cannot
// detach an edge the way string matching would.
//
// The graph is deliberately static: calls through function values,
// interface methods, go/defer thunks and closures are not edges.
// Clients using the graph to *suppress* findings must not rely on
// absent edges; its clients (stablesort's comparator helpers, allocfree's
// callee walk) follow the edges that exist and say so.
type CallGraph struct {
	nodes map[*types.Func]*CallNode
}

// CallNode is one declared function with its resolved static callees in
// source order (deduplicated).
type CallNode struct {
	Fn      *types.Func
	Decl    *ast.FuncDecl
	Callees []*types.Func
}

// CallGraph returns the package's memoized call graph, building it on
// first use; all checks share the one instance.
func (p *Package) CallGraph() *CallGraph {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cg != nil {
		return p.cg
	}
	g := &CallGraph{nodes: map[*types.Func]*CallNode{}}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &CallNode{Fn: fn, Decl: fd}
			dedup := map[*types.Func]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := p.CalleeOf(call); callee != nil && !dedup[callee] {
					dedup[callee] = true
					node.Callees = append(node.Callees, callee)
				}
				return true
			})
			g.nodes[fn] = node
		}
	}
	p.cg = g
	return g
}

// Node returns the graph node for a function declared in this package,
// or nil for external or undeclared functions.
func (g *CallGraph) Node(fn *types.Func) *CallNode { return g.nodes[fn] }

// CalleeOf resolves the statically-known target of a call expression:
// a plain function, a package-qualified function, or a method reached
// through a selector. Calls through function values, type conversions
// and builtins return nil.
func (p *Package) CalleeOf(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
