package boostvet

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// DeterminismAnalyzer guards the bit-identical-exploration invariant: the
// graph (IDs, edges, valences, reports, progress) must be identical for
// any worker × store configuration, so the engine and its output
// paths must not consume ambient nondeterminism.
//
// In the root package and internal/{explore,intern,symmetry,server} it
// flags:
//
//   - iteration over a map whose loop body feeds an output sink
//     (fmt printing, Write*/Encode*/Marshal* calls) — Go randomizes map
//     order, so anything emitted from inside the range is
//     run-dependent. Collecting keys and sorting first is the sanctioned
//     pattern and is naturally not flagged (append is not a sink);
//   - calls to time.Now/time.Since — wall-clock values must not reach
//     fingerprints, reports, or progress records;
//   - package-level math/rand calls — the global source is unseeded (or
//     process-seeded), so even the explicitly seeded construction site
//     carries an ignore directive documenting why it is exempt
//     (methods on an explicitly constructed *rand.Rand are not flagged:
//     the hazard is the source, not its use).
var DeterminismAnalyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag map-order, wall-clock and global-rand nondeterminism in the exploration engine and its output paths " +
		"(root package, internal/{explore,intern,symmetry,server})",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runDeterminism,
}

// determinismScope lists the module-relative package paths the analyzer
// covers: the engine, its keying/reduction layers, and the two places
// that serialize results for users.
var determinismScope = map[string]bool{
	"":                  true, // the root boosting package
	"internal/explore":  true,
	"internal/intern":   true,
	"internal/symmetry": true,
	"internal/server":   true,
}

func runDeterminism(pass *analysis.Pass) (any, error) {
	rel, inModule := pkgRel(pass.Pkg)
	if !inModule || !determinismScope[rel] {
		return nil, nil
	}
	ig := newIgnorer(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil), (*ast.RangeStmt)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := funcOf(pass, n)
			if fn == nil || fn.Pkg() == nil {
				return
			}
			sig, _ := fn.Type().(*types.Signature)
			pkgLevel := sig != nil && sig.Recv() == nil
			switch {
			case isPkgFunc(fn, "time", "Now") || isPkgFunc(fn, "time", "Since"):
				ig.report(pass, "determinism", n.Pos(),
					"time.%s in the deterministic-exploration scope: wall-clock values must not reach fingerprints, reports or progress", fn.Name())
			case pkgLevel && (fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2"):
				ig.report(pass, "determinism", n.Pos(),
					"math/rand.%s in the deterministic-exploration scope: randomness is allowed only on the explicitly seeded RunRandom path (document with //lint:boostvet-ignore determinism)", fn.Name())
			}
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				return
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return
			}
			if sink := findOutputSink(pass, n.Body); sink != nil {
				ig.report(pass, "determinism", n.Pos(),
					"map iteration feeds %s: map order is randomized, so emitted output is run-dependent — collect the keys, sort, then iterate", sink.name)
			}
		}
	})
	return nil, nil
}

// outputSink describes the first output call found in a map-range body.
type outputSink struct{ name string }

// findOutputSink looks for a call inside body that emits bytes somewhere a
// user (or a fingerprint) can see: the fmt printing family, or any method
// call named Write*/Encode*/Marshal*/Fprint* (bytes.Buffer, strings.Builder,
// io.Writer, encoders). Plain collection — append, map insert, arithmetic —
// is not a sink, so the collect-keys-then-sort idiom passes untouched.
func findOutputSink(pass *analysis.Pass, body *ast.BlockStmt) *outputSink {
	var found *outputSink
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcOf(pass, call)
		if fn == nil {
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fn.Name() != "Sprintf" && fn.Name() != "Errorf" {
			// Sprintf/Errorf only matter if their result is emitted, and
			// that emission is itself a sink we will see.
			found = &outputSink{name: "fmt." + fn.Name()}
			return false
		}
		for _, prefix := range []string{"Write", "Encode", "Marshal", "Fprint"} {
			if len(fn.Name()) >= len(prefix) && fn.Name()[:len(prefix)] == prefix {
				found = &outputSink{name: fn.Name()}
				return false
			}
		}
		return true
	})
	return found
}
