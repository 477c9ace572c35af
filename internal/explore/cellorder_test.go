package explore_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/system"
)

// prewarm interns sys's reachable component states in an order no build
// uses: depth-first from the last monotone root to the first, tasks in
// reverse. Every cell a build will meet then already has its index, and every
// action its number, and not the ones a cold build would have given them.
func prewarm(t *testing.T, sys *system.System) {
	t.Helper()
	stack := monotoneRoots(t, sys)
	seen := map[string]bool{}
	tasks := slices.Clone(sys.Tasks())
	slices.Reverse(tasks)
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		fp := sys.Fingerprint(st)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		for _, task := range tasks {
			if !sys.Applicable(st, task) {
				continue
			}
			next, _, err := sys.Apply(st, task)
			if err != nil {
				t.Fatal(err)
			}
			stack = append(stack, next)
		}
	}
}

// dirBytes reads every file of a graph directory, by name.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestCellOrderUnobservable: the dense store dedups on cell indices and every
// edge carries an action number, and which index a component state gets, or
// which number an action, depends on who interned or performed it first. Two
// instances of one system, one cold and one prewarmed in a foreign order,
// therefore key the same vertices and label the same edges differently — and
// must still produce the same graph per ID (fingerprints, edges with their
// resolved labels, witness paths, valences) on the dense store and on spill,
// the same refutation report and the same durable directory, byte for byte,
// on one worker and on several (the refuter's failure scenarios fanned out).
func TestCellOrderUnobservable(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		cold := mustForward(t, 3, 1, service.Adversarial)
		warm := mustForward(t, 3, 1, service.Adversarial)
		prewarm(t, warm)
		opt := explore.BuildOptions{Workers: workers}

		coldC, err := explore.ClassifyInits(cold, opt)
		if err != nil {
			t.Fatal(err)
		}
		warmC, err := explore.ClassifyInits(warm, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, coldC.Graph, warmC.Graph)
		keysDiffer, labelsDiffer := 0, 0
		for id := range explore.StateID(coldC.Graph.Size()) {
			st, _ := coldC.Graph.State(id)
			if !bytes.Equal(cold.AppendKey(nil, st), warm.AppendKey(nil, st)) {
				keysDiffer++
			}
			for i := range cold.Tasks() {
				_, coldL, _, err := cold.Step(st, i)
				if err != nil {
					t.Fatal(err)
				}
				if _, warmL, _, _ := warm.Step(st, i); warmL != coldL {
					labelsDiffer++
				}
			}
		}
		if keysDiffer == 0 || labelsDiffer == 0 {
			t.Fatalf("workers=%d: prewarming changed %d vertex keys and %d edge labels; the test compares nothing", workers, keysDiffer, labelsDiffer)
		}
		spill := opt
		spill.Store, spill.SpillDir = explore.StoreSpill, t.TempDir()
		for _, sys := range []*system.System{cold, warm} {
			spillC, err := explore.ClassifyInits(sys, spill)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, coldC.Graph, spillC.Graph)
			if err := explore.CloseGraphStore(spillC.Graph); err != nil {
				t.Fatal(err)
			}
		}

		coldR, err := explore.Refute(cold, 1, explore.RefuteOptions{Build: opt})
		if err != nil {
			t.Fatal(err)
		}
		warmR, err := explore.Refute(warm, 1, explore.RefuteOptions{Build: opt})
		if err != nil {
			t.Fatal(err)
		}
		if c, w := coldR.String(), warmR.String(); c != w {
			t.Fatalf("workers=%d: reports differ\ncold:\n%s\nwarm:\n%s", workers, c, w)
		}

		coldDir, warmDir := t.TempDir(), t.TempDir()
		for _, b := range []struct {
			sys *system.System
			dir string
		}{{cold, coldDir}, {warm, warmDir}} {
			durable := opt
			durable.Store, durable.GraphDir = explore.StoreSpill, b.dir
			c, err := explore.ClassifyInits(b.sys, durable)
			if err != nil {
				t.Fatal(err)
			}
			if err := explore.CloseGraphStore(c.Graph); err != nil {
				t.Fatal(err)
			}
		}
		coldFiles, warmFiles := dirBytes(t, coldDir), dirBytes(t, warmDir)
		if len(coldFiles) == 0 || len(coldFiles) != len(warmFiles) {
			t.Fatalf("workers=%d: %d files cold, %d warm", workers, len(coldFiles), len(warmFiles))
		}
		for name, b := range coldFiles {
			if !bytes.Equal(b, warmFiles[name]) {
				t.Errorf("workers=%d: %s differs between the cold and the prewarmed build", workers, name)
			}
		}
	}
}
