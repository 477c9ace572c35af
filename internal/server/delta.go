package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// The delta-match cache tier. On an exact-key miss of a classify job the
// server probes a second index keyed by everything EXCEPT the silence
// policy: a hit means a durable graph for a policy-variant of the same
// candidate is already committed under the graph root, and the job reopens
// it and reads the verdict off its root valences instead of rebuilding:
// a silence policy cannot change a failure-free graph (see
// explore.ClassifyReopened). The index is only a routing hint — the reopen
// re-validates the directory, down to the candidate's monotone roots, and
// anything that fails is dropped and rebuilt.

// graphIndexCap bounds the delta index; evicted entries take their
// committed graph directories with them.
const graphIndexCap = 256

// graphEntry records one committed durable graph under the graph root.
type graphEntry struct {
	// deltaKey is the policy-blind index key.
	deltaKey string
	// exactKey is the result-cache key of the job that built the graph.
	exactKey string
	// dir is the committed graph directory (derived from exactKey).
	dir string
}

// graphIndex is the LRU of committed durable graphs, keyed by the
// policy-blind delta key. Evicting an entry removes its directory: the
// index is the single owner of everything under the graph root.
type graphIndex struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element // deltaKey -> *graphEntry
	lru     *list.List
}

func newGraphIndex(max int) *graphIndex {
	return &graphIndex{
		max:     max,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// lookup returns the committed graph for a delta key, refreshing its LRU
// position.
func (gi *graphIndex) lookup(deltaKey string) (graphEntry, bool) {
	gi.mu.Lock()
	defer gi.mu.Unlock()
	el, ok := gi.entries[deltaKey]
	if !ok {
		return graphEntry{}, false
	}
	gi.lru.MoveToFront(el)
	return *el.Value.(*graphEntry), true
}

// put registers a freshly committed graph, displacing any previous entry
// under the same delta key (its directory is removed unless it is the
// same directory being re-registered).
func (gi *graphIndex) put(e graphEntry) {
	gi.mu.Lock()
	defer gi.mu.Unlock()
	if el, ok := gi.entries[e.deltaKey]; ok {
		old := el.Value.(*graphEntry)
		if old.dir != e.dir {
			_ = os.RemoveAll(old.dir)
		}
		*old = e
		gi.lru.MoveToFront(el)
		return
	}
	gi.entries[e.deltaKey] = gi.lru.PushFront(&e)
	for gi.max > 0 && len(gi.entries) > gi.max {
		el := gi.lru.Back()
		old := el.Value.(*graphEntry)
		gi.lru.Remove(el)
		delete(gi.entries, old.deltaKey)
		_ = os.RemoveAll(old.dir)
	}
}

// drop forgets an entry whose directory failed to reopen, removing the
// damaged directory so the next build starts clean. The dir guard keeps
// a concurrent re-registration under the same delta key alive.
func (gi *graphIndex) drop(deltaKey, dir string) {
	gi.mu.Lock()
	defer gi.mu.Unlock()
	if el, ok := gi.entries[deltaKey]; ok {
		old := el.Value.(*graphEntry)
		if old.dir != dir {
			return
		}
		gi.lru.Remove(el)
		delete(gi.entries, deltaKey)
		_ = os.RemoveAll(old.dir)
	}
}

// deltaKey is the policy-blind sibling of cacheKey: protocol, sizes,
// analysis and every verdict-affecting option EXCEPT the silence policy.
// Two submissions with equal delta keys and unequal exact keys differ
// only in policy — exactly the relation under which the committed graph is
// the submission's own failure-free G(C).
func (r *Request) deltaKey() string {
	return fmt.Sprintf("delta|%s|n=%d|f=%d|a=%s|sym=%t|ms=%d|mr=%d|ng=%t|r=%d",
		r.Protocol, r.N, r.F, r.Analysis,
		r.Options.Symmetry, r.Options.MaxStates, r.Options.MaxRounds,
		r.Options.NoGraph, r.Options.Rounds)
}

// deltaEligible reports whether a validated request may use the durable
// graph tier at all: the server has a graph root, the analysis is the
// Lemma 4 sweep (one graph per verdict — refutations build several), and
// the option block does not pin a conflicting backend. The store check
// mirrors WithGraphDir's conflict matrix: an explicit non-spill store or
// a caller-owned spill directory wins over durability.
func (s *Server) deltaEligible(r *Request) bool {
	if s.cfg.GraphRoot == "" || r.Analysis != AnalysisClassify {
		return false
	}
	o := r.Options
	return (o.Store == "" || o.Store == "spill") && o.SpillDir == "" && !o.NoGraph
}

// graphDirFor maps an exact cache key to its directory under the graph
// root. The hash keeps option tuples and fingerprints out of path names.
func (s *Server) graphDirFor(exactKey string) string {
	sum := sha256.Sum256([]byte(exactKey))
	return filepath.Join(s.cfg.GraphRoot, hex.EncodeToString(sum[:16]))
}

// DeltaHits reports how many submissions were routed to a policy-variant's
// committed graph instead of a rebuild.
func (s *Server) DeltaHits() int64 { return s.deltaHits.Load() }
