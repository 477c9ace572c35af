package boosting_test

// The durable data files do not move: the edge file is what the commit
// before edges travelled as (task, action) indices wrote (49e24bb), and the
// fingerprint file is what the spill store wrote while it kept its vertices
// in it (fec1a93). The index and the manifest are format 4's: format 3
// dropped the predecessor links, format 4 the builder's identity and symmetry
// flag from the manifest; a directory of format 2 is refused and rebuilt.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/ioa-lab/boosting"
)

// TestDurableBytesPinned holds every file of a committed directory to SHA-256
// sums: edges.dat and fingerprints.dat taken before their writers last
// changed, index.dat and manifest.json at manifest format 4. The spill
// adjacency fills its persisted dictionaries in the order SetSuccs first
// meets a label; the System's action numbers, which differ with the worker
// count, must not leak into that order, so every row is built on one worker
// and on two. The fingerprints are written at commit from the vertex store's
// states, in ID order; they were appended at intern time while the spill
// store kept its vertices in that file, and are the same bytes.
func TestDurableBytesPinned(t *testing.T) {
	for _, row := range []struct {
		name, protocol string
		n              int
		opts           []boosting.Option
		sums           map[string]string
	}{
		{"forward-n4", "forward", 4, nil, map[string]string{
			"edges.dat":        "48dfb6605c86daeb25631d660dc3671e72c07b048652df3c77602693ad4120bf",
			"fingerprints.dat": "bb3888749f41696a9ef056b0d534e0bc6fa281def5651351aec4c58684fff890",
			"index.dat":        "6235705d2564ca778b1af9a0f85ded3c2701fa6b34a7fcc6417e21ea5df321c6",
			"manifest.json":    "acd0f4e70765fa7a6a793a70fb24b2a1f4c43dacb9e7fedd686b925b7426d391",
		}},
		{"forward-n4-symmetry", "forward", 4, []boosting.Option{boosting.WithSymmetry()}, map[string]string{
			"edges.dat":        "d0a19137622a5924ed5e1a303617e343755a366f5abfd7c414130bacf3ff1deb",
			"fingerprints.dat": "f93efe2d29eed88c3840d418e3bb045bbb72a1507c0297f98ab676aa5304da79",
			"index.dat":        "0e225466feefc3ecbb0a1ca09b9bef8c85a2b9afd45b9d8de27632d42aa7c944",
			"manifest.json":    "0138daa534dfbe953a368bb38a938962f161321b2f72941b92a47fc6c00b5b9f",
		}},
		{"tob-n2", "tob", 2, nil, map[string]string{
			"edges.dat":        "fccc457bf710ed47f2fe14a4f8f06303b29ab91d956092c8758cff8bfbe5a4e2",
			"fingerprints.dat": "c448e8d10f001e4a865c7576fb2313449729c690b5fa0fe0bd84de2b80e6a5d7",
			"index.dat":        "2ab8fd941f8bb26df9abe2282a90171fdba6aa2c4a8a7793ca6c70440c655a05",
			"manifest.json":    "e8966b06f177bc6647d7de3343bae95a276555e27a0f6f48cdb28d048de1eb08",
		}},
	} {
		for _, workers := range []int{1, 2} {
			dir := t.TempDir()
			opts := append([]boosting.Option{boosting.WithWorkers(workers), boosting.WithGraphDir(dir)}, row.opts...)
			chk, err := boosting.New(row.protocol, row.n, 0, opts...)
			if err != nil {
				t.Fatal(err)
			}
			c, err := chk.ClassifyInits()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			for file, want := range row.sums {
				b, err := os.ReadFile(filepath.Join(dir, file))
				if err != nil {
					t.Fatal(err)
				}
				if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want {
					t.Errorf("%s workers=%d: %s is not the pinned commit's, byte for byte (sha256 %x)", row.name, workers, file, sum)
				}
			}
		}
	}
}

// TestFormat2DirectoryRebuilds: testdata/graph-pr21-forward-n2 was written
// by `hookfind -n 2 -f 0 -graphdir` at manifest format 2, whose index carried
// the predecessor links. OpenGraph refuses it with a *ManifestError naming
// the format, and a WithGraphDir ClassifyInits over it rebuilds it in place
// into the graph a fresh build produces, which OpenGraph then reattaches.
func TestFormat2DirectoryRebuilds(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/graph-pr21-forward-n2")); err != nil {
		t.Fatal(err)
	}
	chk, err := boosting.New("forward", 2, 0, boosting.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := chk.ClassifyInits()
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	_, err = chk.OpenGraph(dir)
	var merr *boosting.ManifestError
	if !errors.As(err, &merr) || !strings.Contains(err.Error(), "unsupported manifest format 2 (want 4)") {
		t.Errorf("OpenGraph on a format-2 directory: %v, want a *ManifestError naming the format", err)
	}
	durable, err := boosting.New("forward", 2, 0, boosting.WithWorkers(1), boosting.WithGraphDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	got, err := durable.ClassifyInits()
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	assertGraphsIdentical(t, "rebuilt", want.Graph, got.Graph)
	if witnessPathsSum(got.Graph) != witnessPathsSum(want.Graph) {
		t.Error("rebuilt: witness paths differ from a fresh build's")
	}
	if !slices.Equal(got.Valences, want.Valences) || got.BivalentIndex != want.BivalentIndex {
		t.Errorf("rebuilt: valences %v, first bivalent %d; a fresh build finds %v and %d",
			got.Valences, got.BivalentIndex, want.Valences, want.BivalentIndex)
	}
	opened, err := chk.OpenGraph(dir)
	if err != nil {
		t.Fatalf("the rebuilt directory does not reattach: %v", err)
	}
	defer boosting.CloseGraph(opened)
	assertGraphsIdentical(t, "reattached", want.Graph, opened)
}
