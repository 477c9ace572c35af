package boosting_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/ioa-lab/boosting"
)

// witnessPathsSum hashes every vertex's WitnessPath, in ID order: the vertex,
// then per edge its task, action and target.
func witnessPathsSum(g *boosting.Graph) string {
	h := sha256.New()
	for id := range boosting.StateID(g.Size()) {
		fmt.Fprintf(h, "%d", id)
		for _, e := range g.WitnessPath(id) {
			fmt.Fprintf(h, " %+v %+v %d", e.Task, e.Action, e.To)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWitnessPathsPinned holds every vertex's witness path on the Lemma 4
// graph to a SHA-256 taken while the level loop stored one BFS-tree
// predecessor link per vertex. The paths must come out the same on the dense
// store, on spill and on a reopened durable graph.
func TestWitnessPathsPinned(t *testing.T) {
	for _, row := range []struct {
		name, protocol string
		n, f           int
		opts           []boosting.Option
		sum            string
	}{
		{"forward-n4", "forward", 4, 0, nil, "607201964c0b36cd1f48ab036046889da7ae89065a61073879756805315b7ade"},
		{"forward-n4-symmetry", "forward", 4, 0, []boosting.Option{boosting.WithSymmetry()}, "eb3f9822fccd69f59c219a10ba0aa568284ec72c4bd5f315e01bb4012d117670"},
		{"forward-n3-f1", "forward", 3, 1, nil, "d780b3df1e0d97dd9bd5738b6aade7209865287bbf1a05ba3e17f6acc62edadb"},
		{"tob-n2", "tob", 2, 0, nil, "a33cad1e26db33da994261d910f4b92f8b524ae909aca0a3e85e64da7944c4a1"},
		{"registervote-n2", "registervote", 2, 0, nil, "423859dd416c2eda8eab6b54fb6bbc59b0650a9cc0ba903d98a7be1b96799993"},
		{"setboost-n2", "setboost", 2, 0, nil, "a2c7c1010abd590da106e2e1fd3667e10c0548ac18dfc35969023bfa2d2bc0e2"},
	} {
		dir := t.TempDir()
		for _, v := range []struct {
			name string
			opts []boosting.Option
		}{
			{"dense", nil},
			{"spill", []boosting.Option{boosting.WithSpillDir(t.TempDir())}},
			{"durable", []boosting.Option{boosting.WithGraphDir(dir)}},
		} {
			chk := mustChecker(t, row.protocol, row.n, row.f, append(append([]boosting.Option{boosting.WithWorkers(1)}, row.opts...), v.opts...)...)
			c, err := chk.ClassifyInits()
			if err != nil {
				t.Fatalf("%s/%s: %v", row.name, v.name, err)
			}
			if sum := witnessPathsSum(c.Graph); sum != row.sum {
				t.Errorf("%s/%s: witness paths sha256 %s, want %s", row.name, v.name, sum, row.sum)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
		g, err := mustChecker(t, row.protocol, row.n, row.f).OpenGraph(dir)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if sum := witnessPathsSum(g); sum != row.sum {
			t.Errorf("%s/reopened: witness paths sha256 %s, want %s", row.name, sum, row.sum)
		}
		if err := boosting.CloseGraph(g); err != nil {
			t.Fatal(err)
		}
	}
}
