package explore_test

// Durable graph store acceptance suite: a graph built with
// BuildOptions.GraphDir and reopened with OpenGraph must be per-ID and
// per-edge IDENTICAL to the freshly built graph — same StateIDs,
// fingerprints, edges, valences, roots and witness paths — across
// ±symmetry; every way a committed directory can be
// damaged or mismatched must surface as a typed *ManifestError.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/symmetry"
	"github.com/ioa-lab/boosting/internal/system"
)

// forwardCanon builds the process-renaming canonicalizer of the forward
// protocol, for the ±symmetry legs of the parity suite.
func forwardCanon(t *testing.T, sys *system.System, n int) explore.Canonicalizer {
	t.Helper()
	c, err := symmetry.New(sys, protocols.ForwardSymmetry(n))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// monotoneRoots builds the α_0 … α_n monotone input roots ClassifyInits
// explores from.
func monotoneRoots(t testing.TB, sys *system.System) []system.State {
	t.Helper()
	n := len(sys.ProcessIDs())
	roots := make([]system.State, 0, n+1)
	for i := 0; i <= n; i++ {
		st, err := explore.ApplyInputs(sys, explore.MonotoneAssignment(sys, i))
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, st)
	}
	return roots
}

// requireIdentical asserts got is the same graph as ref, per ID and per
// edge: sizes, roots, fingerprints, successor sequences, valences and
// witness paths.
func requireIdentical(t *testing.T, ref, got *explore.Graph) {
	t.Helper()
	if got.Size() != ref.Size() || got.Edges() != ref.Edges() {
		t.Fatalf("size/edges: got %d/%d, want %d/%d", got.Size(), got.Edges(), ref.Size(), ref.Edges())
	}
	refRoots, gotRoots := ref.Roots(), got.Roots()
	if len(refRoots) != len(gotRoots) {
		t.Fatalf("roots: got %v, want %v", gotRoots, refRoots)
	}
	for i := range refRoots {
		if refRoots[i] != gotRoots[i] {
			t.Fatalf("root %d: got %d, want %d", i, gotRoots[i], refRoots[i])
		}
	}
	for id := 0; id < ref.Size(); id++ {
		sid := explore.StateID(id)
		if rf, gf := ref.Fingerprint(sid), got.Fingerprint(sid); rf != gf {
			t.Fatalf("state %d: fingerprint %q != %q", id, gf, rf)
		}
		re, ge := ref.Succs(sid), got.Succs(sid)
		if len(re) != len(ge) {
			t.Fatalf("state %d: %d succs, want %d", id, len(ge), len(re))
		}
		for j := range re {
			if re[j] != ge[j] {
				t.Fatalf("state %d edge %d: got %+v, want %+v", id, j, ge[j], re[j])
			}
		}
		if rv, gv := ref.Valence(sid), got.Valence(sid); rv != gv {
			t.Fatalf("state %d: valence %v, want %v", id, gv, rv)
		}
		if rp, gp := ref.WitnessPath(sid), got.WitnessPath(sid); !slices.Equal(rp, gp) {
			t.Fatalf("state %d: witness path %+v, want %+v", id, gp, rp)
		}
	}
}

// TestDurableReopenParity is the tentpole acceptance test of the durable
// store: for ±symmetry, the durable spill build equals the
// dense reference build, and the graph reopened from the committed
// directory equals both — without exploring a state.
func TestDurableReopenParity(t *testing.T) {
	sys := mustForward(t, 3, 1, service.Adversarial)
	roots := monotoneRoots(t, sys)
	for _, canon := range []explore.Canonicalizer{nil, forwardCanon(t, sys, 3)} {
		label := "plain"
		if canon != nil {
			label = "symmetry"
		}
		t.Run(label, func(t *testing.T) {
			ref, err := explore.BuildGraph(sys, roots, explore.BuildOptions{Workers: 1, Symmetry: canon})
			if err != nil {
				t.Fatal(err)
			}
			defer explore.CloseGraphStore(ref)

			dir := t.TempDir()
			id := []byte("test-graph-id-" + label)
			built, err := explore.BuildGraph(sys, roots, explore.BuildOptions{
				Workers: 1, Store: explore.StoreSpill, Symmetry: canon, GraphDir: dir, GraphID: id})
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, ref, built)
			if err := explore.CloseGraphStore(built); err != nil {
				t.Fatal(err)
			}

			reopened, err := explore.OpenGraph(sys, dir, explore.OpenOptions{GraphID: id})
			if err != nil {
				t.Fatal(err)
			}
			defer explore.CloseGraphStore(reopened)
			requireIdentical(t, ref, reopened)

			m, ok := explore.GraphManifest(reopened)
			if !ok {
				t.Fatal("reopened graph has no manifest")
			}
			if m.States != ref.Size() || m.Edges != ref.Edges() {
				t.Errorf("manifest %+v disagrees with graph %d/%d", m, ref.Size(), ref.Edges())
			}
		})
	}
}

// TestDurableSpillStats pins what GraphSpillStats reports about fingerprint
// traffic now that every vertex stays resident: the durable commit writes
// fingerprints.dat once (SpillBytes is its exact size, both on the built graph
// and on the reopened one), a graph built in this process decoded none (Reads
// 0), and OpenGraph decodes each vertex exactly once (Reads == States).
func TestDurableSpillStats(t *testing.T) {
	sys := mustForward(t, 3, 1, service.Adversarial)
	dir := t.TempDir()
	built, err := explore.BuildGraph(sys, monotoneRoots(t, sys), explore.BuildOptions{
		Workers: 1, Store: explore.StoreSpill, GraphDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "fingerprints.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("the durable commit wrote an empty fingerprints.dat")
	}
	bs, ok := explore.GraphSpillStats(built)
	if !ok {
		t.Fatal("GraphSpillStats not ok for a durable spill build")
	}
	if bs.States != built.Size() || bs.SpillBytes != fi.Size() || bs.Reads != 0 {
		t.Errorf("built: stats %+v, want %d states, %d fingerprint bytes, 0 reads", bs, built.Size(), fi.Size())
	}
	if err := explore.CloseGraphStore(built); err != nil {
		t.Fatal(err)
	}

	reopened, err := explore.OpenGraph(sys, dir, explore.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer explore.CloseGraphStore(reopened)
	rs, ok := explore.GraphSpillStats(reopened)
	if !ok {
		t.Fatal("GraphSpillStats not ok for a reopened graph")
	}
	if rs.States != reopened.Size() || rs.SpillBytes != fi.Size() || rs.Reads != int64(reopened.Size()) {
		t.Errorf("reopened: stats %+v, want %d states, %d fingerprint bytes, %d reads",
			rs, reopened.Size(), fi.Size(), reopened.Size())
	}
	if rs.EdgeBytes != bs.EdgeBytes {
		t.Errorf("reopened: %d edge bytes, built graph wrote %d", rs.EdgeBytes, bs.EdgeBytes)
	}
}

// TestDurableOpenErrors drives OpenGraph through the open-time failure
// table: identity mismatches and damaged data files are all typed
// *ManifestError values, and a refused open leaves no descriptor behind. A
// fingerprint file of the right length can still be damaged: a record the
// decoder rejects, or a record that decodes to an earlier vertex's state,
// is refused by the decode pass, not met later as a corrupt vertex.
func TestDurableOpenErrors(t *testing.T) {
	sys := mustForward(t, 2, 1, service.Adversarial)
	roots := monotoneRoots(t, sys)
	build := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		g, err := explore.BuildGraph(sys, roots, explore.BuildOptions{
			Store: explore.StoreSpill, Workers: 1, GraphDir: dir, GraphID: []byte("id-1")})
		if err != nil {
			t.Fatal(err)
		}
		if err := explore.CloseGraphStore(g); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	cases := []struct {
		name string
		open func(t *testing.T, dir string) error
	}{
		{
			name: "graph identity mismatch",
			open: func(t *testing.T, dir string) error {
				_, err := explore.OpenGraph(sys, dir, explore.OpenOptions{GraphID: []byte("id-2")})
				return err
			},
		},
		{
			name: "shape mismatch",
			open: func(t *testing.T, dir string) error {
				other := mustForward(t, 3, 1, service.Adversarial)
				_, err := explore.OpenGraph(other, dir, explore.OpenOptions{})
				return err
			},
		},
		{
			name: "format-2 manifest",
			open: func(t *testing.T, dir string) error {
				path := filepath.Join(dir, "manifest.json")
				writeFile(t, path, []byte(strings.Replace(string(readFile(t, path)), `"format": 3`, `"format": 2`, 1)))
				_, err := explore.OpenGraph(sys, dir, explore.OpenOptions{})
				if err == nil || !strings.Contains(err.Error(), "unsupported manifest format 2 (want 3)") {
					t.Errorf("a format-2 manifest opened as %v", err)
				}
				return err
			},
		},
		{
			name: "truncated fingerprint file",
			open: func(t *testing.T, dir string) error {
				truncateTail(t, filepath.Join(dir, "fingerprints.dat"))
				_, err := explore.OpenGraph(sys, dir, explore.OpenOptions{})
				return err
			},
		},
		{
			name: "undecodable fingerprint",
			open: func(t *testing.T, dir string) error {
				path := filepath.Join(dir, "fingerprints.dat")
				raw := readFile(t, path)
				raw[0] = 0xff // vertex 0's first byte: no state encoding starts so
				writeFile(t, path, raw)
				_, err := explore.OpenGraph(sys, dir, explore.OpenOptions{})
				return err
			},
		},
		{
			name: "duplicated fingerprint",
			open: func(t *testing.T, dir string) error {
				g, err := explore.OpenGraph(sys, dir, explore.OpenOptions{})
				if err != nil {
					t.Fatal(err)
				}
				fp0, fp1 := g.Fingerprint(0), g.Fingerprint(1)
				if err := explore.CloseGraphStore(g); err != nil {
					t.Fatal(err)
				}
				if len(fp0) != len(fp1) || fp0 == fp1 {
					t.Fatalf("vertices 0 and 1 have fingerprints of %d and %d bytes; the row needs two of one length", len(fp0), len(fp1))
				}
				path := filepath.Join(dir, "fingerprints.dat")
				raw := readFile(t, path)
				copy(raw[len(fp0):], fp0) // the file holds the records in ID order
				writeFile(t, path, raw)
				_, err = explore.OpenGraph(sys, dir, explore.OpenOptions{})
				return err
			},
		},
		{
			name: "truncated edge file",
			open: func(t *testing.T, dir string) error {
				truncateTail(t, filepath.Join(dir, "edges.dat"))
				_, err := explore.OpenGraph(sys, dir, explore.OpenOptions{})
				return err
			},
		},
		{
			name: "corrupted index",
			open: func(t *testing.T, dir string) error {
				flipByte(t, filepath.Join(dir, "index.dat"))
				_, err := explore.OpenGraph(sys, dir, explore.OpenOptions{})
				return err
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := build(t)
			err := tc.open(t, dir)
			var merr *explore.ManifestError
			if !errors.As(err, &merr) {
				t.Fatalf("want *ManifestError, got %T: %v", err, err)
			}
			if n := descriptorsUnder(t, dir); n != 0 {
				t.Errorf("%d descriptors into the directory left open by the refused open", n)
			}
		})
	}
}

// descriptorsUnder counts this process's open file descriptors that point
// into dir. Linux-only (reads /proc/self/fd); elsewhere the test skips the
// check.
func descriptorsUnder(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to count: %v", err)
	}
	dir, err = filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// TestClassifyReopened drives the one reader that serves a committed graph to
// a candidate other than its builder. The accepted rows hold the answer to
// the variant's own ClassifyInits per ID and explore nothing; the refused
// rows are directories that reopen cleanly (same shape, sound files) but do
// not hold this sweep's graph, and each is a typed *ManifestError.
func TestClassifyReopened(t *testing.T) {
	builder := mustForward(t, 3, 1, service.Adversarial)
	variant := mustForward(t, 3, 1, service.Benign)
	reversed := monotoneRoots(t, builder)
	slices.Reverse(reversed)
	cases := []struct {
		name    string
		roots   []system.State // nil = the builder's monotone roots
		built   explore.BuildOptions
		asked   explore.BuildOptions
		refused bool
	}{
		{name: "policy variant"},
		{name: "policy variant, quotient",
			built: explore.BuildOptions{Symmetry: forwardCanon(t, builder, 3)},
			asked: explore.BuildOptions{Symmetry: forwardCanon(t, variant, 3)}},
		{name: "quotient committed, full graph asked",
			built: explore.BuildOptions{Symmetry: forwardCanon(t, builder, 3)}, refused: true},
		{name: "full graph committed, quotient asked",
			asked: explore.BuildOptions{Symmetry: forwardCanon(t, variant, 3)}, refused: true},
		{name: "monotone roots in another order", roots: reversed, refused: true},
		{name: "a single explored root", roots: reversed[:1], refused: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			roots := tc.roots
			if roots == nil {
				roots = monotoneRoots(t, builder)
			}
			tc.built.Workers, tc.built.Store, tc.built.GraphDir = 1, explore.StoreSpill, dir
			g, err := explore.BuildGraph(builder, roots, tc.built)
			if err != nil {
				t.Fatal(err)
			}
			if err := explore.CloseGraphStore(g); err != nil {
				t.Fatal(err)
			}
			tc.asked.Workers = 1
			want, err := explore.ClassifyInits(variant, tc.asked)
			if err != nil {
				t.Fatal(err)
			}
			defer want.Close()
			tc.asked.Progress = func(explore.Progress) { t.Error("the reopen explored a level") }
			got, err := explore.ClassifyReopened(variant, dir, tc.asked)
			if tc.refused {
				var merr *explore.ManifestError
				if !errors.As(err, &merr) {
					got.Close()
					t.Fatalf("want *ManifestError, got %T: %v", err, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			requireIdentical(t, want.Graph, got.Graph)
			if !reflect.DeepEqual(got.Assignments, want.Assignments) ||
				!slices.Equal(got.Roots, want.Roots) ||
				!slices.Equal(got.Valences, want.Valences) ||
				got.BivalentIndex != want.BivalentIndex {
				t.Errorf("classification differs from the variant's own sweep:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func truncateTail(t *testing.T, path string) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string) {
	t.Helper()
	raw := readFile(t, path)
	raw[len(raw)/2] ^= 0xff
	writeFile(t, path, raw)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func writeFile(t *testing.T, path string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
}
