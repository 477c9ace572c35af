package boostvet

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// StoreBoundsAnalyzer guards the stores' totality contract: the read
// accessors of the vertex store and of every AdjacencyStore implementation —
// State, Fingerprint, Pred, EdgesFrom, Targets, each taking a StateID
// first — must be total over all possible IDs. Out-of-range must be an
// explicit zero answer, never a slice-bounds panic, and the guard must be
// the uint trick (`if uint(id) >= uint(len(s.xs))`), which also rejects IDs
// that would wrap a plain int conversion.
//
// Two diagnostics:
//
//   - an index expression that executes before any uint-vs-uint bounds
//     comparison in the method;
//   - an explicit panic call inside an accessor. The spill adjacency's
//     corruption panics (undecodable edge blocks the store itself wrote)
//     are deliberate and carry ignore directives documenting that. They
//     are the only ones: the vertex store is in RAM, and a durable
//     graph's fingerprints are decoded, and refused if damaged, when it
//     is opened.
//
// A pure delegation body — `return x.inner.SameMethod(id)` — is exempt:
// the bounds discipline lives at the implementation it forwards to.
var StoreBoundsAnalyzer = &analysis.Analyzer{
	Name: "storebounds",
	Doc: "check that StateID read accessors of store implementations guard indices with uint comparisons " +
		"and contain no reachable panicking index or panic call",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runStoreBounds,
}

// accessorNames is the read face of the vertex store and the adjacencies.
var accessorNames = map[string]bool{
	"State":       true,
	"Fingerprint": true,
	"Pred":        true,
	"EdgesFrom":   true,
	"Targets":     true,
}

func runStoreBounds(pass *analysis.Pass) (any, error) {
	if _, inModule := pkgRel(pass.Pkg); !inModule {
		return nil, nil
	}
	ig := newIgnorer(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if !isStoreAccessor(pass, fn) || fn.Body == nil {
			return
		}
		if isDelegation(fn) {
			return
		}
		checkAccessor(pass, ig, fn)
	})
	return nil, nil
}

// isStoreAccessor reports whether fn is a read accessor of the store seam:
// a method named State/Fingerprint/Pred/EdgesFrom/Targets on a pointer-to-struct
// receiver whose first parameter is a StateID.
func isStoreAccessor(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || !accessorNames[fn.Name.Name] {
		return false
	}
	if fn.Type.Params == nil || len(fn.Type.Params.List) == 0 {
		return false
	}
	recv := pass.TypesInfo.TypeOf(fn.Recv.List[0].Type)
	if recv == nil {
		return false
	}
	ptr, ok := types.Unalias(recv).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok {
		return false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return false
	}
	first := pass.TypesInfo.TypeOf(fn.Type.Params.List[0].Type)
	named2, ok := types.Unalias(first).(*types.Named)
	return ok && named2.Obj().Name() == "StateID"
}

// isDelegation reports whether the whole body is `return expr.Method(args)`
// forwarding to a method of the same name.
func isDelegation(fn *ast.FuncDecl) bool {
	if len(fn.Body.List) != 1 {
		return false
	}
	ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == fn.Name.Name
}

func checkAccessor(pass *analysis.Pass, ig *ignorer, fn *ast.FuncDecl) {
	// Position of the first uint-vs-uint bounds comparison; indexes before
	// it run unguarded.
	guardPos := fn.Body.End()
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok && isUintGuard(pass, be) && be.Pos() < guardPos {
			guardPos = be.Pos()
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Array, *types.Pointer:
				if n.Pos() < guardPos {
					ig.report(pass, "storebounds", n.Pos(),
						"index expression in store read accessor %s before any uint bounds guard: accessors must be total (`if uint(id) >= uint(len(...))` first)", fn.Name.Name)
				}
			}
		case *ast.CallExpr:
			if isBuiltinPanic(pass, n) {
				ig.report(pass, "storebounds", n.Pos(),
					"panic in store read accessor %s: the read face must be total — return the zero answer for out-of-range IDs (corruption panics need an ignore directive explaining why)", fn.Name.Name)
			}
		}
		return true
	})
}

// isUintGuard matches `uint(a) >= uint(b)` and the other comparison
// orientations — both operands explicitly converted to uint.
func isUintGuard(pass *analysis.Pass, be *ast.BinaryExpr) bool {
	switch be.Op.String() {
	case "<", "<=", ">", ">=":
	default:
		return false
	}
	return isUintConv(pass, be.X) && isUintConv(pass, be.Y)
}

func isUintConv(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Uint
}
