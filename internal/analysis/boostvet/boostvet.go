// Package boostvet is the repo's invariant suite: five go/analysis
// passes that mechanically enforce the engine contracts the parity
// tests otherwise only catch after the fact.
//
// The reproduction's analogue of the paper's exactness claims is
// bit-identical exploration: the FLP-derived bivalence machinery only
// means something if the graph — IDs, edges, valences, reports — is
// deterministic across workers × stores, if spill descriptors
// are released on every exit path, if store reads are total, and if
// typed errors survive the trip across the façade. Each analyzer
// guards one of those contracts; `make analyze` runs them all via
// cmd/boostvet, and CI rejects violations at the diff.
//
// A diagnostic at a deliberate site is silenced with an inline
// directive on the flagged line or the line above it:
//
//	//lint:boostvet-ignore <analyzer> — justification
//
// The justification is mandatory by convention (review rejects bare
// ignores), not by the checker.
package boostvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers is the full suite in the order cmd/boostvet registers them.
var Analyzers = []*analysis.Analyzer{
	DeterminismAnalyzer,
	GraphCloseAnalyzer,
	StoreBoundsAnalyzer,
	TypedErrAnalyzer,
	CtxFlowAnalyzer,
}

// modulePath anchors the scope checks. Testdata packages in the golden
// tests are type-checked under fabricated paths below this prefix so the
// same scoping logic applies to them.
const modulePath = "github.com/ioa-lab/boosting"

// pkgRel returns the package path relative to the module root ("" for the
// root package) and whether the package is inside the module at all.
func pkgRel(pkg *types.Package) (string, bool) {
	p := pkg.Path()
	if p == modulePath {
		return "", true
	}
	if rest, ok := strings.CutPrefix(p, modulePath+"/"); ok {
		return rest, true
	}
	return "", false
}

// ignoreDirective is the inline escape hatch prefix.
const ignoreDirective = "lint:boostvet-ignore"

// ignorer answers "is this analyzer suppressed at this position?" for one
// file set. A directive comment suppresses diagnostics on its own line and
// on the line directly below it, so both trailing and preceding placement
// work:
//
//	rng := rand.New(...) //lint:boostvet-ignore determinism — seeded path
//
//	//lint:boostvet-ignore determinism — seeded path
//	rng := rand.New(...)
type ignorer struct {
	fset *token.FileSet
	// lines maps filename → line → analyzer names ignored there.
	lines map[string]map[int][]string
}

func newIgnorer(pass *analysis.Pass) *ignorer {
	ig := &ignorer{fset: pass.Fset, lines: make(map[string]map[int][]string)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, ignoreDirective)
				if !ok {
					continue
				}
				// Everything up to a justification dash is the
				// analyzer name list.
				for _, sep := range []string{"—", "--", "//"} {
					if i := strings.Index(rest, sep); i >= 0 {
						rest = rest[:i]
					}
				}
				names := strings.Fields(rest)
				if len(names) == 0 {
					continue
				}
				pos := ig.fset.Position(c.Pos())
				m := ig.lines[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					ig.lines[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], names...)
				m[pos.Line+1] = append(m[pos.Line+1], names...)
			}
		}
	}
	return ig
}

func (ig *ignorer) ignored(analyzer string, pos token.Pos) bool {
	p := ig.fset.Position(pos)
	for _, name := range ig.lines[p.Filename][p.Line] {
		if name == analyzer {
			return true
		}
	}
	return false
}

// report emits a diagnostic unless an ignore directive covers the line.
func (ig *ignorer) report(pass *analysis.Pass, analyzer string, pos token.Pos, format string, args ...any) {
	if ig.ignored(analyzer, pos) {
		return
	}
	pass.Reportf(pos, format, args...)
}

// funcOf resolves the called function, looking through parenthesization.
// Returns nil for calls through function-typed variables, closures, and
// type conversions.
func funcOf(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPkgFunc reports whether fn is the named package-level function of the
// package with the given path (e.g. isPkgFunc(fn, "time", "Now")).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// exprRootedAt reports whether e is the identifier for obj or a selector
// chain hanging off it (v, v.F, v.F.G, ...).
func exprRootedAt(info *types.Info, e ast.Expr, obj types.Object) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x] == obj
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return false
		}
	}
}

// usesObject reports whether the object appears anywhere inside n.
func usesObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
