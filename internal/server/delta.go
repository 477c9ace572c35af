package server

import (
	"container/list"
	"fmt"
	"slices"
	"sync"

	"github.com/ioa-lab/boosting"
)

// The delta-match cache tier. On an exact-key miss of a classify job the
// server probes a second index keyed by everything EXCEPT the silence
// policy. A hit means a silence-policy variant of the same candidate has
// already finished a full build, and the index holds that build's verdict:
// a silence policy cannot change a failure-free graph (the façade's
// TestPolicyVariantGraphIdentical), so the variant's G(C), and with it the
// Lemma 4 verdict, is the recorded one. The index is only a routing hint:
// the job recomputes its own n+1 canonical monotone-root fingerprints and
// answers from the entry only when they equal the recorded ones. On a
// mismatch the entry is dropped and the job builds in full.

// verdictIndexCap bounds the delta index in entries.
const verdictIndexCap = 256

// verdictEntry records one finished classify build. It is immutable once
// put: a replacement is a new entry.
type verdictEntry struct {
	// deltaKey is the policy-blind index key.
	deltaKey string
	// exactKey is the result-cache key of the job that built the graph.
	exactKey string
	// roots are the builder's canonical monotone-root fingerprints, α_0
	// to α_n (see monotoneRoots).
	roots [][]byte
	// result is a private copy of the builder's verdict, Explored unset.
	result *Result
}

// verdictIndex is the LRU of recorded classify verdicts, keyed by the
// policy-blind delta key.
type verdictIndex struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element // deltaKey -> *verdictEntry
	lru     *list.List
}

func newVerdictIndex(max int) *verdictIndex {
	return &verdictIndex{
		max:     max,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// lookup returns the entry recorded under a delta key, refreshing its LRU
// position.
func (vi *verdictIndex) lookup(deltaKey string) (*verdictEntry, bool) {
	vi.mu.Lock()
	defer vi.mu.Unlock()
	el, ok := vi.entries[deltaKey]
	if !ok {
		return nil, false
	}
	vi.lru.MoveToFront(el)
	return el.Value.(*verdictEntry), true
}

// put records a finished build, displacing any previous entry under the
// same delta key and evicting the least recently used beyond the bound.
func (vi *verdictIndex) put(e *verdictEntry) {
	vi.mu.Lock()
	defer vi.mu.Unlock()
	if el, ok := vi.entries[e.deltaKey]; ok {
		el.Value = e
		vi.lru.MoveToFront(el)
		return
	}
	vi.entries[e.deltaKey] = vi.lru.PushFront(e)
	for vi.max > 0 && len(vi.entries) > vi.max {
		el := vi.lru.Back()
		vi.lru.Remove(el)
		delete(vi.entries, el.Value.(*verdictEntry).deltaKey)
	}
}

// drop forgets an entry whose roots did not match. An entry put under the
// same delta key since the lookup stays.
func (vi *verdictIndex) drop(e *verdictEntry) {
	vi.mu.Lock()
	defer vi.mu.Unlock()
	if el, ok := vi.entries[e.deltaKey]; ok && el.Value == e {
		vi.lru.Remove(el)
		delete(vi.entries, e.deltaKey)
	}
}

// deltaKey is the policy-blind sibling of cacheKey: protocol, sizes,
// analysis and every verdict-affecting option EXCEPT the silence policy.
// Two submissions with equal delta keys and unequal exact keys differ
// only in policy — exactly the relation under which a recorded verdict is
// the submission's own.
func (r *Request) deltaKey() string {
	return fmt.Sprintf("delta|%s|n=%d|f=%d|a=%s|sym=%t|ms=%d|mr=%d|r=%d",
		r.Protocol, r.N, r.F, r.Analysis,
		r.Options.Symmetry, r.Options.MaxStates, r.Options.MaxRounds, r.Options.Rounds)
}

// deltaEligible reports whether a validated request may use the delta
// tier: the analysis is the Lemma 4 sweep (one graph per verdict —
// refutations build several, and their failure scenarios read the policy).
// Neither the store nor nograph matters: no backend changes a verdict, and
// a classify builds its graph whether or not the refuters' graph phase is
// skipped.
func deltaEligible(r *Request) bool {
	return r.Analysis == AnalysisClassify
}

// monotoneRoots returns the canonical fingerprints of chk's n+1 monotone
// initializations α_0 … α_n, the roots of its Lemma 4 sweep.
func monotoneRoots(chk *boosting.Checker) ([][]byte, error) {
	sys := chk.System()
	roots := make([][]byte, len(sys.ProcessIDs())+1)
	for i := range roots {
		fp, err := chk.CanonicalRootFingerprint(boosting.MonotoneAssignment(sys, i))
		if err != nil {
			return nil, err
		}
		roots[i] = fp
	}
	return roots, nil
}

// verdictCopy returns a classify result's verdict fields in a Result that
// shares no slice or pointer with r, Explored unset.
func verdictCopy(r *Result) *Result {
	idx := *r.BivalentIndex
	return &Result{
		Analysis:      r.Analysis,
		States:        r.States,
		Edges:         r.Edges,
		Valences:      slices.Clone(r.Valences),
		BivalentIndex: &idx,
	}
}

// DeltaHits reports how many submissions were routed to a policy-variant's
// recorded verdict instead of a rebuild.
func (s *Server) DeltaHits() int64 { return s.deltaHits.Load() }
