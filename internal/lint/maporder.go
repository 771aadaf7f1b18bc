package lint

import (
	"go/ast"
	"go/types"
)

// MaporderCheck keeps Go's randomized map iteration order out of the
// decision paths and the random streams. Two things are findings: a
// range statement over a map-typed operand (a type parameter whose
// constraint admits a map included), and any call of maps.Keys,
// maps.Values or maps.All, whose iterators yield in the same random
// order — slices.Collect(maps.Keys(m)) leaks it without a range
// statement.
//
// The rule is syntactic on purpose. Whether a loop body's effect
// depends on the order (an accumulated slice, an audit entry, a seed
// taken from the first key) is a property a sort afterwards can hide: a
// stable sort by a non-unique key keeps the map's order among ties. In
// scope no code ranges over a map, so a loop that must is a visible,
// justified lint:ignore rather than an argument the checker settles.
// Maps read by key stay free.
type MaporderCheck struct{}

// maporderScopes are the decision paths and the packages that build
// random streams, so a map key can reach neither a decision nor a seed.
var maporderScopes = []string{"pjs/internal/sched", "pjs/internal/sim", "pjs/internal/fault", "pjs/internal/workload"}

// mapIterators are the maps-package functions that iterate in map order.
var mapIterators = map[string]bool{"Keys": true, "Values": true, "All": true}

// Name implements Check.
func (*MaporderCheck) Name() string { return "maporder" }

// Doc implements Check.
func (*MaporderCheck) Doc() string {
	return "no range over a map and no maps.Keys/Values/All in decision paths and RNG packages"
}

// Applies implements Check.
func (*MaporderCheck) Applies(pkgPath string) bool {
	return inScope(pkgPath, maporderScopes)
}

// Run implements Check.
func (*MaporderCheck) Run(p *Package, rep *Reporter) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if isMapType(p.Info.TypeOf(n.X)) {
					rep.Reportf(n.Pos(),
						"range over a map visits keys in random order; iterate a slice or sorted keys instead")
				}
			case *ast.CallExpr:
				if path, name, ok := pkgFunc(p, n); ok && path == "maps" && mapIterators[name] {
					rep.Reportf(n.Pos(),
						"maps.%s yields in random map order; iterate a slice or sorted keys instead", name)
				}
			}
			return true
		})
	}
}

// isMapType reports whether t is a map, or a type parameter whose
// constraint admits one.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	tp, ok := types.Unalias(t).(*types.TypeParam)
	if !ok {
		_, isMap := t.Underlying().(*types.Map)
		return isMap
	}
	iface := tp.Constraint().Underlying().(*types.Interface)
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		u, ok := iface.EmbeddedType(i).(*types.Union)
		if !ok {
			if isMapType(iface.EmbeddedType(i)) {
				return true
			}
			continue
		}
		for k := 0; k < u.Len(); k++ {
			if isMapType(u.Term(k).Type()) {
				return true
			}
		}
	}
	return false
}
