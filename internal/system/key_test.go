package system_test

// Tests of System.AppendKey, the cell-index identity the in-RAM vertex store
// dedups on: within one System it must separate exactly what the canonical
// fingerprint separates, however a state's cells were come by, and the
// indices behind it must stay dense and unique when goroutines race to
// intern the same component states.

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/ioa-lab/boosting/internal/system"
)

// randomWalk follows random applicable tasks from the all-inputs root of sys,
// failing a process now and then, and returns every state it stood in.
func randomWalk(t testing.TB, sys *system.System, rng *rand.Rand, steps int) []system.State {
	t.Helper()
	st := sampleStates(t, sys, 2)[1]
	states := []system.State{sys.InitialState(), st}
	for range steps {
		if rng.Intn(25) == 0 {
			ids := sys.ProcessIDs()
			next, _, err := sys.Fail(st, ids[rng.Intn(len(ids))])
			if err != nil {
				t.Fatal(err)
			}
			st = next
			states = append(states, st)
			continue
		}
		var applicable []int
		for i, task := range sys.Tasks() {
			if sys.Applicable(st, task) {
				applicable = append(applicable, i)
			}
		}
		if len(applicable) == 0 {
			break
		}
		next, _, err := sys.Apply(st, sys.Tasks()[applicable[rng.Intn(len(applicable))]])
		if err != nil {
			t.Fatal(err)
		}
		st = next
		states = append(states, st)
	}
	return states
}

// TestKeyIsTheFingerprint: over every protocol family, for states met along
// random walks, decoded from their fingerprints, borrowed from a second
// System of the same shape (foreign cells, walked and decoded there), rebuilt
// component by component with StateOf, and moved whole between slots with
// Permuted, AppendKey(a) == AppendKey(b) exactly when
// Fingerprint(a) == Fingerprint(b).
func TestKeyIsTheFingerprint(t *testing.T) {
	others := registrySystems(t)
	for name, sys := range registrySystems(t) {
		other := others[name]
		rng := rand.New(rand.NewSource(21))
		var pool []system.State
		for range 6 {
			pool = append(pool, randomWalk(t, sys, rng, 120)...)
			pool = append(pool, randomWalk(t, other, rng, 120)...) // foreign cells
		}
		n := len(sys.ProcessIDs())
		rotate := make([]int, n)
		for i := range rotate {
			rotate[i] = (i + 1) % n
		}
		for _, st := range pool[:len(pool):len(pool)] {
			fp := sys.Fingerprint(st)
			parsed, err := sys.ParseFingerprint(fp)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			foreign, err := other.ParseFingerprint(fp)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rebuilt, err := sys.StateOf(sys.ComponentStates(st))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			pool = append(pool, parsed, foreign, rebuilt)
			if name == "forward" {
				// The one family here whose symmetry spec moves cells whole.
				moved := sys.Permuted(st, rotate)
				pool = append(pool, moved, other.Permuted(foreign, rotate), sys.Permuted(moved, rotate))
			}
		}
		keyOf, fpOf := map[string]string{}, map[string]string{}
		var buf []byte
		for _, st := range pool {
			fp := sys.Fingerprint(st)
			buf = sys.AppendKey(buf[:0], st)
			if want := 4 * (n + len(sys.ServiceIDs())); len(buf) != want {
				t.Fatalf("%s: %d-byte key, want %d", name, len(buf), want)
			}
			key := string(buf)
			if k, ok := keyOf[fp]; ok && k != key {
				t.Fatalf("%s: one fingerprint, two keys %x and %x:\n%q", name, k, key, fp)
			}
			if f, ok := fpOf[key]; ok && f != fp {
				t.Fatalf("%s: one key %x, two fingerprints:\n%q\n%q", name, key, f, fp)
			}
			keyOf[fp], fpOf[key] = key, fp
		}
		if len(keyOf) < 50 {
			t.Fatalf("%s: only %d distinct states in the pool", name, len(keyOf))
		}
	}
}

// TestConcurrentCellIndices: four goroutines decode the same fingerprints
// into one fresh System, each starting somewhere else in the list, so they
// race to intern the same component states into the same slots. Afterwards
// every slot's indices are 0 … len−1, one per encoding, and all four read the
// same key for the same state. Run with -race -count=10 (make race).
func TestConcurrentCellIndices(t *testing.T) {
	const goroutines = 4
	source := registrySystems(t)["forward"]
	var fps []string
	for _, st := range sampleStates(t, source, 400) {
		fps = append(fps, source.Fingerprint(st))
	}
	shared := registrySystems(t)["forward"]
	keys := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys[g] = make([]string, len(fps))
			for k := range fps {
				i := (k + g*len(fps)/goroutines) % len(fps)
				st, err := shared.ParseFingerprint(fps[i])
				if err != nil {
					t.Error(err)
					return
				}
				keys[g][i] = string(shared.AppendKey(nil, st))
			}
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range fps {
			if keys[g][i] != keys[0][i] {
				t.Fatalf("goroutines 0 and %d read keys %x and %x for state %d", g, keys[0][i], keys[g][i], i)
			}
		}
	}
	procs, svcs := shared.CellIndices()
	cells := 0
	for slot, m := range append(procs, svcs...) {
		seen := make([]bool, len(m))
		for enc, idx := range m {
			if int(idx) >= len(m) || seen[idx] {
				t.Fatalf("slot %d: index %d of %q is out of range or taken (%d cells)", slot, idx, enc, len(m))
			}
			seen[idx] = true
		}
		cells += len(m)
	}
	if cells < 50 {
		t.Fatalf("only %d cells interned", cells)
	}
}
