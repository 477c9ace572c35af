package boosting_test

// The durable bytes do not move: the edge file, the index and the manifest of
// a WithGraphDir build are what the commit before edges travelled as
// (task, action) indices wrote (PR 21, 49e24bb), and a directory that commit's
// binary committed reopens into the graph a build produces today.

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/ioa-lab/boosting"
)

// TestDurableBytesPinned holds the three files whose bytes depend on edge
// labels to SHA-256 sums taken at the parent commit. The spill adjacency fills
// its persisted dictionaries in the order SetSuccs first meets a label; the
// System's action numbers, which differ with the worker count, must not leak
// into that order, so every row is built on one worker and on two.
func TestDurableBytesPinned(t *testing.T) {
	for _, row := range []struct {
		name, protocol string
		n              int
		opts           []boosting.Option
		sums           map[string]string
	}{
		{"forward-n4", "forward", 4, nil, map[string]string{
			"edges.dat":     "48dfb6605c86daeb25631d660dc3671e72c07b048652df3c77602693ad4120bf",
			"index.dat":     "7f20705b48c13bdd52a6aaa0ca3063de3b908649803651234d331f2f0d568631",
			"manifest.json": "c9dc991117e85ca0073f48fc3076e6d69ca065336cab905534d183215b336d15",
		}},
		{"forward-n4-symmetry", "forward", 4, []boosting.Option{boosting.WithSymmetry()}, map[string]string{
			"edges.dat":     "d0a19137622a5924ed5e1a303617e343755a366f5abfd7c414130bacf3ff1deb",
			"index.dat":     "baeed201931520cbeb630165a37f5d0f7d90394a66a0614cd033477937cf8ec7",
			"manifest.json": "d887f2173dd8461eb70adafb7c69e53d5bdd480f0c3a2d8ef6f9ce6fb93f8fee",
		}},
		{"tob-n2", "tob", 2, nil, map[string]string{
			"edges.dat":     "fccc457bf710ed47f2fe14a4f8f06303b29ab91d956092c8758cff8bfbe5a4e2",
			"index.dat":     "feed053d10d0e0c8895087ffce0303ea814365bf54267ab46b7c441e5284d9fe",
			"manifest.json": "a977fa53a05523d48c6631fb4c795fcfe37a3c89bdf30eb94bfdfbaf4997ca9a",
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
					t.Errorf("%s workers=%d: %s is not the parent commit's, byte for byte (sha256 %x)", row.name, workers, file, sum)
				}
			}
		}
	}
}

// TestParentBuiltDirectoryReopens: testdata/graph-pr21-forward-n2 was written
// by the parent commit's `hookfind -n 2 -f 0 -graphdir`. It passes OpenGraph's
// and ClassifyReopened's validation and reads back — edges resolved through
// the persisted dictionaries, witness links included — as the graph built now.
func TestParentBuiltDirectoryReopens(t *testing.T) {
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
	g, err := chk.OpenGraph(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer boosting.CloseGraph(g)
	re, err := chk.ClassifyReopened(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for label, got := range map[string]*boosting.Graph{"OpenGraph": g, "ClassifyReopened": re.Graph} {
		assertGraphsIdentical(t, label, want.Graph, got)
		for id := range boosting.StateID(want.Graph.Size()) {
			wp, gp := want.Graph.WitnessPath(id), got.WitnessPath(id)
			if len(wp) != len(gp) {
				t.Fatalf("%s: witness path of %d has %d edges, want %d", label, id, len(gp), len(wp))
			}
			for i := range wp {
				if wp[i] != gp[i] {
					t.Fatalf("%s: witness path of %d, edge %d is %+v, want %+v", label, id, i, gp[i], wp[i])
				}
			}
		}
	}
	if !slices.Equal(re.Valences, want.Valences) || re.BivalentIndex != want.BivalentIndex {
		t.Errorf("ClassifyReopened: valences %v, first bivalent %d; a build finds %v and %d",
			re.Valences, re.BivalentIndex, want.Valences, want.BivalentIndex)
	}
}
