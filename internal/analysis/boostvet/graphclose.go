package boostvet

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"
)

// GraphCloseAnalyzer guards the CloseGraph protocol: every value flowing
// out of a graph-producing call (explore.BuildGraph, Checker.Explore,
// ClassifyInits, Refute, RefuteKSet — anything whose first result carries
// an open *Graph, directly or through exported fields like
// Report.Inits.Graph) must reach a Close call on every control-flow path,
// including error returns. The spill backend holds a file descriptor per
// open graph; a path that drops the handle leaks it for the life of the
// process.
//
// Variable propagation follows the goexhauerrors pattern over the
// function's CFG: from the producing assignment, every path must hit one
// of
//
//   - a (possibly deferred) call to CloseGraph/CloseGraphStore/closeGraph
//     or a Close method, rooted at the tracked variable
//     (g, report.Inits.Graph, ...);
//   - a return that hands the value to the caller (ownership transfer);
//   - an assignment that stores the value somewhere longer-lived
//     (the new owner is then responsible);
//   - a return lexically guarded by the producing call's error variable —
//     producers return a nil graph alongside a non-nil error, so the
//     `if err != nil { return ... }` arm holds nothing to close;
//   - a process exit (os.Exit, log.Fatal*, panic) — the kernel reclaims
//     descriptors, and panic unwinds through any registered defers.
//
// Discarding the result with `_` is flagged outright.
var GraphCloseAnalyzer = &analysis.Analyzer{
	Name: "graphclose",
	Doc: "check that graphs from BuildGraph/Explore/ClassifyInits/Refute reach CloseGraph on all paths, " +
		"including error returns (spill builds hold a file descriptor per open graph)",
	Requires: []*analysis.Analyzer{ctrlflow.Analyzer},
	Run:      runGraphClose,
}

func runGraphClose(pass *analysis.Pass) (any, error) {
	if _, inModule := pkgRel(pass.Pkg); !inModule {
		return nil, nil
	}
	ig := newIgnorer(pass)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var g *cfg.CFG
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return true
				}
				body, g = fn.Body, cfgs.FuncDecl(fn)
			case *ast.FuncLit:
				body, g = fn.Body, cfgs.FuncLit(fn)
			default:
				return true
			}
			checkGraphClose(pass, ig, body, g)
			return true
		})
	}
	return nil, nil
}

// isTestFile reports whether the file is a _test.go file. Test graphs die
// with the process almost immediately and t.Cleanup idioms would defeat
// the syntactic release detection.
func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	name := pass.Fset.Position(f.Pos()).Filename
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

func checkGraphClose(pass *analysis.Pass, ig *ignorer, body *ast.BlockStmt, g *cfg.CFG) {
	// Producers assigned inside nested function literals are analyzed when
	// the literal itself is visited, so only look at this body's own
	// statements: skip descending into FuncLits.
	var producers []producerSite
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if p, ok := producerAssign(pass, n); ok {
				producers = append(producers, p)
			}
		case *ast.ExprStmt:
			// A bare producer call discards the graph on the spot.
			if call, ok := n.X.(*ast.CallExpr); ok {
				if fn := producerCallee(pass, call); fn != nil {
					ig.report(pass, "graphclose", call.Pos(),
						"result of %s carries an open graph but is discarded; close it or hand it to an owner", fn.Name())
				}
			}
		}
		return true
	})

	for _, p := range producers {
		if p.obj == nil {
			// `_, err := chk.Explore(...)` — the handle is gone already.
			ig.report(pass, "graphclose", p.call.Pos(),
				"result of %s carries an open graph but is assigned to _; close it or keep the handle", p.fn.Name())
			continue
		}
		// A deferred release anywhere in the function covers every
		// subsequent exit (the canonical fix is `defer CloseGraph(...)`
		// right after the error check; helpers are nil-tolerant).
		deferred := false
		ast.Inspect(body, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok && isReleaseCall(pass, d.Call, p.obj) {
				deferred = true
			}
			return !deferred
		})
		if deferred {
			continue
		}
		if g == nil {
			continue
		}
		if leak, at := findLeakPath(pass, g, p); leak {
			ig.report(pass, "graphclose", at.Pos(),
				"graph from %s is not closed on this path (spill builds leak a file descriptor); "+
					"add `defer boosting.CloseGraph(...)`/`defer x.Close()` after the error check or return the value", p.fn.Name())
		}
	}
}

// producerSite is one tracked graph-producing assignment.
type producerSite struct {
	stmt *ast.AssignStmt
	call *ast.CallExpr
	fn   *types.Func
	obj  types.Object // the graph-carrying variable; nil if assigned to _
	err  types.Object // the error result variable, if any
}

// producerAssign recognizes `g, err := produce(...)` / `g := produce(...)`.
func producerAssign(pass *analysis.Pass, as *ast.AssignStmt) (producerSite, bool) {
	if len(as.Rhs) != 1 {
		return producerSite{}, false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return producerSite{}, false
	}
	fn := producerCallee(pass, call)
	if fn == nil {
		return producerSite{}, false
	}
	p := producerSite{stmt: as, call: call, fn: fn}
	if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
		p.obj = pass.TypesInfo.Defs[id]
		if p.obj == nil {
			p.obj = pass.TypesInfo.Uses[id] // plain `=` assignment
		}
	}
	if len(as.Lhs) > 1 {
		if id, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok && id.Name != "_" {
			p.err = pass.TypesInfo.Defs[id]
			if p.err == nil {
				p.err = pass.TypesInfo.Uses[id]
			}
		}
	}
	return p, true
}

// producerCallee reports whether the call's static callee is an exported
// module function whose first result is a graph carrier. Calls through
// closures and function values are not tracked (the closure body is).
func producerCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	fn := funcOf(pass, call)
	if fn == nil || !fn.Exported() || fn.Pkg() == nil {
		return nil
	}
	if !inModulePkg(fn.Pkg()) {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil
	}
	if !carriesGraph(sig.Results().At(0).Type(), 0) {
		return nil
	}
	return fn
}

func inModulePkg(pkg *types.Package) bool {
	_, ok := pkgRel(pkg)
	return ok
}

// carriesGraph reports whether t is *explore.Graph or a pointer to a
// module struct with an exported field path (depth ≤ 3) leading to one —
// *InitClassification via .Graph, *Report via .Inits.Graph. Unexported
// fields are deliberately not followed: internal back-references
// (bfs scratch structs and the like) borrow the graph, they do not own it.
func carriesGraph(t types.Type, depth int) bool {
	if depth > 3 {
		return false
	}
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !inModulePkg(obj.Pkg()) {
		return false
	}
	if obj.Name() == "Graph" {
		return true
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Exported() && carriesGraph(f.Type(), depth+1) {
			return true
		}
	}
	return false
}

// isReleaseCall reports whether the call releases the graph held by obj:
// a close function applied to the variable (or a selector path hanging
// off it), or a Close method invoked on it.
func isReleaseCall(pass *analysis.Pass, call *ast.CallExpr, obj types.Object) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if isCloseName(fun.Name) && len(call.Args) > 0 {
			return exprRootedAt(pass.TypesInfo, call.Args[0], obj)
		}
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Close" {
			return exprRootedAt(pass.TypesInfo, fun.X, obj)
		}
		if isCloseName(fun.Sel.Name) && len(call.Args) > 0 {
			return exprRootedAt(pass.TypesInfo, call.Args[0], obj)
		}
	}
	return false
}

func isCloseName(name string) bool {
	switch name {
	case "CloseGraph", "CloseGraphStore", "closeGraph", "CloseReport":
		return true
	}
	return false
}

// findLeakPath walks the CFG from the producing assignment and reports
// the first function exit the tracked value can reach without a release.
func findLeakPath(pass *analysis.Pass, g *cfg.CFG, p producerSite) (bool, ast.Node) {
	start, idx := blockOf(g, p.stmt)
	if start == nil {
		return false, nil
	}
	allowedReturns := errGuardedReturns(pass, p)

	type item struct {
		b    *cfg.Block
		from int // scan Nodes starting at this index
	}
	seen := make(map[*cfg.Block]bool)
	work := []item{{start, idx + 1}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		released, leakAt := scanBlock(pass, it.b, it.from, p, allowedReturns)
		if leakAt != nil {
			return true, leakAt
		}
		if released {
			continue
		}
		for _, s := range it.b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, item{s, 0})
			}
		}
	}
	return false, nil
}

// scanBlock scans one basic block from index `from`. It reports whether
// the path is settled inside the block (released, escaped, or ended by a
// process exit), and a leak site if the block exits the function with the
// handle still open.
func scanBlock(pass *analysis.Pass, b *cfg.Block, from int, p producerSite, allowed map[*ast.ReturnStmt]bool) (settled bool, leakAt ast.Node) {
	for _, n := range b.Nodes[min(from, len(b.Nodes)):] {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				if isReleaseCall(pass, call, p.obj) {
					return true, nil
				}
				if isProcessExit(pass, call) {
					return true, nil
				}
			}
		case *ast.DeferStmt:
			if isReleaseCall(pass, n.Call, p.obj) {
				return true, nil
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if carrierEscapes(pass, res, p.obj) {
					return true, nil // ownership transferred to the caller
				}
			}
			if allowed[n] {
				return true, nil // error-guarded exit: the handle is nil by contract
			}
			return true, n // function exit with the graph still open
		case *ast.AssignStmt:
			if n == p.stmt {
				continue
			}
			for _, rhs := range n.Rhs {
				if carrierEscapes(pass, rhs, p.obj) {
					return true, nil // stored somewhere longer-lived; new owner's problem
				}
			}
		case ast.Expr:
			// Condition expressions and similar — a call that exits the
			// process can end the path here too (panic(...) is an
			// ExprStmt, handled above; log.Fatal in a condition is not
			// real code).
			continue
		}
	}
	return false, nil
}

// carrierEscapes reports whether expr embeds the graph value held by obj
// into its result: the variable itself, or a selector chain off it whose
// type still carries a graph (report, report.Inits, c.Graph, ...).
// Derived reads — report.Violated(), report.Claimed — do not transfer
// ownership, but passing the carrier to another call as an argument does
// (the callee may be its closer).
func carrierEscapes(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		// Method receivers only read: skip the receiver subtree of
		// `x.M(...)` but keep looking at the arguments.
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
					for _, arg := range call.Args {
						if carrierEscapes(pass, arg, obj) {
							found = true
						}
					}
					return false
				}
			}
			return true
		}
		e, ok := n.(ast.Expr)
		if !ok || !exprRootedAt(pass.TypesInfo, e, obj) {
			return true
		}
		if t := pass.TypesInfo.TypeOf(e); t != nil && carriesGraph(t, 0) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isBuiltinPanic recognizes a call to the predeclared panic.
func isBuiltinPanic(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, builtin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return builtin
}

// isProcessExit recognizes calls after which no user code runs: os.Exit,
// log.Fatal*, runtime.Goexit, and panic. Descriptors do not outlive the
// process, and panic unwinds registered defers.
func isProcessExit(pass *analysis.Pass, call *ast.CallExpr) bool {
	if isBuiltinPanic(pass, call) {
		return true
	}
	fn := funcOf(pass, call)
	if fn == nil {
		return false
	}
	if isPkgFunc(fn, "os", "Exit") || isPkgFunc(fn, "runtime", "Goexit") {
		return true
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "log" {
		switch fn.Name() {
		case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
			return true
		}
	}
	return false
}

// blockOf finds the basic block containing stmt and its index inside it.
func blockOf(g *cfg.CFG, stmt ast.Stmt) (*cfg.Block, int) {
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n == ast.Node(stmt) {
				return b, i
			}
		}
	}
	return nil, 0
}

// errGuardedReturns collects the return statements lexically inside an
// if-arm whose condition mentions the producer's error variable. Producers
// return a nil graph alongside a non-nil error, so those exits hold
// nothing to close.
func errGuardedReturns(pass *analysis.Pass, p producerSite) map[*ast.ReturnStmt]bool {
	out := make(map[*ast.ReturnStmt]bool)
	if p.err == nil {
		return out
	}
	// Walk outward from the producer: scan the whole enclosing file for
	// if-statements over the error object. The error variable is function-
	// scoped, so matching by object cannot cross functions.
	for _, f := range pass.Files {
		if p.stmt.Pos() < f.Pos() || p.stmt.Pos() > f.End() {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok || !usesObject(pass.TypesInfo, ifs.Cond, p.err) {
				return true
			}
			ast.Inspect(ifs.Body, func(n ast.Node) bool {
				if ret, ok := n.(*ast.ReturnStmt); ok {
					out[ret] = true
				}
				return true
			})
			return true
		})
	}
	return out
}
