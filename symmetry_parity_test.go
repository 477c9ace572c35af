package boosting_test

// Quotient-parity suite for symmetry-reduced exploration: for every
// registry protocol, the reduced analyses must reach exactly the verdicts
// of the unreduced ones — same refutation outcomes and certificate kinds,
// same initialization valences, same hook-vs-divergence result — and the
// reduced graph itself must stay identical across every store backend and
// worker count, like the unreduced one.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/ioa-lab/boosting"
)

// registryUnderTest enumerates every registry protocol with analysis
// parameters small enough for an exhaustive cross-product run.
func registryUnderTest() []struct {
	name    string
	n, f    int
	claimed int
	opts    []boosting.Option
} {
	detector := []boosting.Option{boosting.WithRounds(2), boosting.WithMaxRounds(500), boosting.WithMaxStates(5000)}
	return []struct {
		name    string
		n, f    int
		claimed int
		opts    []boosting.Option
	}{
		{"forward", 2, 0, 1, nil},
		{"forward", 3, 0, 1, nil},
		{"tob", 2, 0, 1, nil},
		{"registervote", 2, 0, 1, nil},
		{"setboost", 2, 0, 1, nil},
		{"floodset-p", 3, 0, 1, detector},
		{"fdboost", 3, 0, 2, detector},
		{"evperfect", 3, 0, 1, detector},
		{"suspectcollector", 3, 0, 1, detector},
	}
}

// verdict compresses a refutation report to its verdict content: violation
// flag, certificate kinds in order, init valences, and the hook outcome.
func verdict(r *boosting.Report) (out struct {
	violated  string
	inits     string
	hook      string
	certKinds string
}) {
	if r.Violated() {
		out.violated = "violated"
	} else {
		out.violated = "survived"
	}
	for _, c := range r.Certificates {
		out.certKinds += c.Kind.String() + ";"
	}
	if r.Inits != nil {
		for _, v := range r.Inits.Valences {
			out.inits += v.String() + ";"
		}
		out.inits += "bivalent=" + itoaTest(r.Inits.BivalentIndex)
	}
	switch {
	case r.HookSearch == nil:
		out.hook = "none"
	case r.HookSearch.Hook != nil:
		out.hook = "hook"
	case r.HookSearch.Divergence != nil:
		out.hook = "divergence"
	}
	return out
}

func itoaTest(v int) string {
	if v < 0 {
		return "-"
	}
	return string(rune('0' + v))
}

// TestQuotientParityVerdicts: Refute (and RefuteKSet on the set-consensus
// family) reaches identical verdicts with and without symmetry reduction,
// for every registry protocol, across store backends and worker counts.
func TestQuotientParityVerdicts(t *testing.T) {
	for _, p := range registryUnderTest() {
		base, err := boosting.New(p.name, p.n, p.f, append([]boosting.Option{boosting.WithWorkers(1)}, p.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.Refute(p.claimed)
		if err != nil {
			t.Fatalf("%s unreduced: %v", p.name, err)
		}
		for _, s := range stores {
			for _, workers := range []int{1, 4} {
				if testing.Short() && (workers > 1 || s.store != boosting.DenseStore) {
					continue
				}
				opts := append([]boosting.Option{
					boosting.WithWorkers(workers), boosting.WithStore(s.store), boosting.WithSymmetry(),
				}, p.opts...)
				chk, err := boosting.New(p.name, p.n, p.f, opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := chk.Refute(p.claimed)
				if err != nil {
					t.Fatalf("%s/%s w=%d reduced: %v", p.name, s.name, workers, err)
				}
				if gv, wv := verdict(got), verdict(want); gv != wv {
					t.Errorf("%s/%s w=%d: reduced verdict %+v, unreduced %+v", p.name, s.name, workers, gv, wv)
				}
			}
		}
	}

	// k-set boundary: the Section 4 construction survives its genuine k = 2
	// claim and loses k = 1, reduced exactly as unreduced.
	for _, k := range []int{1, 2} {
		base, err := boosting.New("setboost", 2, 0, boosting.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.RefuteKSet(k, 3)
		if err != nil {
			t.Fatal(err)
		}
		chk, err := boosting.New("setboost", 2, 0, boosting.WithWorkers(1), boosting.WithSymmetry())
		if err != nil {
			t.Fatal(err)
		}
		got, err := chk.RefuteKSet(k, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got.Violated() != want.Violated() {
			t.Errorf("k=%d: reduced violated=%v, unreduced %v", k, got.Violated(), want.Violated())
		}
	}
}

// TestQuotientGraphGolden pins the quotient sizes and asserts the reduced
// graph is identical — IDs, fingerprints, edges, valences — across every
// store backend and worker count, with init classifications preserved
// against the unreduced run.
func TestQuotientGraphGolden(t *testing.T) {
	golden := []struct {
		protocol      string
		n, f          int
		full          int // unreduced vertex count (the golden table)
		states, edges int // quotient
	}{
		{"forward", 2, 0, 66, 46, 130},
		{"forward", 3, 0, 410, 148, 630},
		{"forward", 4, 0, 2486, 385, 2190},
		{"tob", 2, 0, 308, 208, 862},
		{"registervote", 2, 0, 1416, 966, 3802},
		{"setboost", 2, 0, 2675, 1155, 6504},
	}
	for _, g := range golden {
		if testing.Short() && g.full > 2000 {
			continue
		}
		unred, err := boosting.New(g.protocol, g.n, g.f, boosting.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		full, err := unred.ClassifyInits()
		if err != nil {
			t.Fatal(err)
		}
		if full.Graph.Size() != g.full {
			t.Fatalf("%s n=%d: unreduced %d states, want %d", g.protocol, g.n, full.Graph.Size(), g.full)
		}
		ref, err := boosting.New(g.protocol, g.n, g.f, boosting.WithWorkers(1), boosting.WithSymmetry())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.ClassifyInits()
		if err != nil {
			t.Fatal(err)
		}
		if want.Graph.Size() != g.states || want.Graph.Edges() != g.edges {
			t.Errorf("%s n=%d reduced: %d states / %d edges, want %d / %d",
				g.protocol, g.n, want.Graph.Size(), want.Graph.Edges(), g.states, g.edges)
		}
		if want.Graph.Size() >= g.full {
			t.Errorf("%s n=%d: quotient (%d) not smaller than full graph (%d)",
				g.protocol, g.n, want.Graph.Size(), g.full)
		}
		// Verdict preservation against the unreduced classification.
		if want.BivalentIndex != full.BivalentIndex {
			t.Errorf("%s n=%d: reduced bivalent index %d, unreduced %d",
				g.protocol, g.n, want.BivalentIndex, full.BivalentIndex)
		}
		for i := range full.Valences {
			if want.Valences[i] != full.Valences[i] {
				t.Errorf("%s n=%d: reduced valence[%d] = %v, unreduced %v",
					g.protocol, g.n, i, want.Valences[i], full.Valences[i])
			}
		}
		// Store × engine identity of the quotient graph itself.
		for _, s := range stores {
			for _, workers := range []int{1, 4} {
				if s.store == boosting.DenseStore && workers == 1 {
					continue
				}
				if testing.Short() {
					continue
				}
				chk, err := boosting.New(g.protocol, g.n, g.f,
					boosting.WithStore(s.store), boosting.WithWorkers(workers), boosting.WithSymmetry())
				if err != nil {
					t.Fatal(err)
				}
				got, err := chk.ClassifyInits()
				if err != nil {
					t.Fatalf("%s/%s w=%d: %v", g.protocol, s.name, workers, err)
				}
				assertGraphsIdentical(t, g.protocol+"/sym/"+s.name, want.Graph, got.Graph)
				if got.BivalentIndex != want.BivalentIndex {
					t.Errorf("%s/sym/%s w=%d: bivalent index %d, want %d",
						g.protocol, s.name, workers, got.BivalentIndex, want.BivalentIndex)
				}
			}
		}
	}
}

// TestQuotientHookParity: the Fig. 3 construction reaches the same outcome
// kind (hook vs divergence) on the quotient graph as on the full graph.
func TestQuotientHookParity(t *testing.T) {
	for _, p := range []struct {
		name string
		n, f int
	}{
		{"forward", 2, 0}, {"forward", 3, 0}, {"tob", 2, 0},
	} {
		outcome := func(sym bool) string {
			opts := []boosting.Option{boosting.WithWorkers(1)}
			if sym {
				opts = append(opts, boosting.WithSymmetry())
			}
			chk, err := boosting.New(p.name, p.n, p.f, opts...)
			if err != nil {
				t.Fatal(err)
			}
			c, err := chk.ClassifyInits()
			if err != nil {
				t.Fatal(err)
			}
			if c.BivalentIndex < 0 {
				return "no-bivalent"
			}
			res, err := chk.FindHook(c.Graph, c.Roots[c.BivalentIndex])
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case res.Hook != nil:
				return "hook"
			case res.Divergence != nil:
				return "divergence"
			}
			return "none"
		}
		if got, want := outcome(true), outcome(false); got != want {
			t.Errorf("%s n=%d: reduced hook outcome %q, unreduced %q", p.name, p.n, got, want)
		}
	}
}

// TestQuotientFingerprintPins holds the canonical representatives
// byte-identical per ID: a SHA-256 over every vertex fingerprint of the
// quotient, in ID order. Which member of an orbit is canonical is a
// convention, but a committed one — durable graph directories and the
// boostd cache are keyed and filled by these bytes — so a change to the
// canonicalizer must reproduce it exactly. The values were recorded before
// the canonicalizer moved from materialised sort keys to interned cells.
func TestQuotientFingerprintPins(t *testing.T) {
	pins := []struct {
		protocol string
		n        int
		states   int
		sum      string
	}{
		{"forward", 5, 868, "63102ac47e54cec8096f68bcf3cadb97b589c0f312c94a90f36f5a43dcf7aca8"},
		{"forward", 6, 1764, "6c310fed3fad36e3c35b13096e1be02b6a6346300ea7b5e7ad5bf59dac48fc76"},
		{"setboost", 2, 1155, "165ce8a78df1b7d1ad8be624ce6f62fe4b686bbdfa265b1e9982c9a484f29954"},
		// The enumerated path (rename/rewrite specs), which must not move.
		{"tob", 2, 208, "1050fd5da1f16f2414b5f719f19cab2f38e80c42d43d524a2464feafcd7644c4"},
		{"registervote", 2, 966, "9db35264e1247aa905c51936d50c35f9997660bb197c3079a6a8022dc78997a7"},
	}
	for _, p := range pins {
		chk, err := boosting.New(p.protocol, p.n, 0, boosting.WithWorkers(1), boosting.WithSymmetry())
		if err != nil {
			t.Fatal(err)
		}
		c, err := chk.ClassifyInits()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for id := 0; id < c.Graph.Size(); id++ {
			h.Write([]byte(c.Graph.Fingerprint(boosting.StateID(id))))
		}
		if got := hex.EncodeToString(h.Sum(nil)); c.Graph.Size() != p.states || got != p.sum {
			t.Errorf("%s n=%d quotient: %d states, fingerprints hash to %s; pinned %d, %s",
				p.protocol, p.n, c.Graph.Size(), got, p.states, p.sum)
		}
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}
}
