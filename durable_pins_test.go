package boosting_test

// The durable data files do not move: the edge file is what the commit
// before edges travelled as (task, action) indices wrote (49e24bb), and the
// fingerprint file is what the spill store wrote while it kept its vertices
// in it (fec1a93). The index and the manifest are format 3's, which dropped
// the predecessor links; a directory of format 2 is refused and rebuilt.

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
// changed, index.dat and manifest.json at manifest format 3. The spill
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
			"index.dat":        "ec67b7d27b350ad493566e6ce9490ffc97f99bf1a5a1ce224dcc91fb6fa27ac4",
			"manifest.json":    "781a48d72158623b0a98bb1cf8ea135f615041aa6edf239c4c0a1fa6003e7854",
		}},
		{"forward-n4-symmetry", "forward", 4, []boosting.Option{boosting.WithSymmetry()}, map[string]string{
			"edges.dat":        "d0a19137622a5924ed5e1a303617e343755a366f5abfd7c414130bacf3ff1deb",
			"fingerprints.dat": "f93efe2d29eed88c3840d418e3bb045bbb72a1507c0297f98ab676aa5304da79",
			"index.dat":        "deae09fff35ffcac677af77f474b42bde20717a8273297de55b43c9b7b8bbdb7",
			"manifest.json":    "db3fa438188f6a61c73e88fae689fa4ce9ac7ce43f952aa229096f0d4ea3e555",
		}},
		{"tob-n2", "tob", 2, nil, map[string]string{
			"edges.dat":        "fccc457bf710ed47f2fe14a4f8f06303b29ab91d956092c8758cff8bfbe5a4e2",
			"fingerprints.dat": "c448e8d10f001e4a865c7576fb2313449729c690b5fa0fe0bd84de2b80e6a5d7",
			"index.dat":        "ef68e2681c0aa163ddfb37c63150c722340073db352559d84db5cb92c0781e61",
			"manifest.json":    "4461e79945ec2b04034120c245ed1801c4f87dad0c967620e96812a9ef7eadc5",
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
// the predecessor links. OpenGraph and ClassifyReopened refuse it with a
// *ManifestError naming the format, and a WithGraphDir ClassifyInits over it
// rebuilds it in place into the graph a fresh build produces.
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
	_, openErr := chk.OpenGraph(dir)
	_, classifyErr := chk.ClassifyReopened(dir)
	for label, err := range map[string]error{"OpenGraph": openErr, "ClassifyReopened": classifyErr} {
		var merr *boosting.ManifestError
		if !errors.As(err, &merr) || !strings.Contains(err.Error(), "unsupported manifest format 2 (want 3)") {
			t.Errorf("%s on a format-2 directory: %v, want a *ManifestError naming the format", label, err)
		}
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
	if m, ok := boosting.GraphManifest(got.Graph); !ok || m.Format != 3 {
		t.Errorf("rebuilt directory's manifest: %+v", m)
	}
}
