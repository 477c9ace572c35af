package explore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/ioa-lab/boosting/internal/intern"
	"github.com/ioa-lab/boosting/internal/system"
)

// This file is the sharded exploration engine: hash-partitioned intern
// shards that own disjoint fingerprint ranges, so workers intern freshly
// discovered states immediately — under a shard-local lock — instead of
// queueing them for the coordinator's serial pass at the level barrier
// (the single-machine bottleneck of buildGraphParallel).
//
// The engine runs in two phases:
//
//  1. BFS with provisional IDs. Every state routes to the shard selected
//     by its first fingerprint hash (fpHash h1 mod shard count — the same
//     two 64-bit hashes the hash/spill backends key their dedup on, so the
//     routing key is free). A shard is a complete StateStore of the
//     configured backend behind an RWMutex: lookups of already-interned
//     states take the read lock, a miss re-checks and interns under the
//     write lock. A state's provisional ID packs (shard-local ID, shard
//     index); edges recorded during the BFS carry provisional targets.
//     Discovery order — and therefore shard-local ID order — depends on
//     scheduling, which is exactly what phase 2 erases.
//
//  2. Post-hoc deterministic renumbering. Within each BFS level (a graph
//     property, independent of scheduling), vertices sort by their two
//     fingerprint hashes — ties, which require a true 128-bit collision,
//     break on the full canonical fingerprint — and the sorted level-major
//     order becomes the final dense StateID space. The graph is then
//     replayed level by level into a fresh store of the configured
//     backend: vertices intern in final order, edges remap through the
//     (shard, local) → final table, and BFS-tree predecessor links are
//     recomputed canonically (first in-edge in final-ID × task order), so
//     witness paths are as deterministic as everything else.
//
// The result: one canonical graph per (system, symmetry, MaxStates) —
// identical IDs, edges, valences, predecessors and reports for ANY worker
// count, shard count and store backend. It is isomorphic to the legacy
// engines' graph (same states, edge relation, valences and counts) but not
// ID-identical to it, which is why sharding is opt-in via
// BuildOptions.Shards rather than the default.

// maxShards bounds the shard count: 6 bits of every provisional ID address
// the shard, leaving 26 bits (~67M states per shard) for shard-local IDs —
// far beyond the 32-bit StateID budget any single build can reach anyway.
const maxShards = 64

// effectiveShards resolves the Shards knob: values below 1 leave sharding
// off (the legacy engines), larger values clamp to maxShards.
func effectiveShards(s int) int {
	if s < 1 {
		return 0
	}
	return min(s, maxShards)
}

// shardBitsFor is the number of low provisional-ID bits needed to address
// n shards.
func shardBitsFor(n int) uint {
	b := uint(0)
	for 1<<b < n {
		b++
	}
	return b
}

// shard is one fingerprint partition: a full StateStore of the configured
// backend (its own spill files on StoreSpill) behind a read-write lock,
// plus the per-local-vertex sidecars the renumber pass needs — the two
// fingerprint hashes (sort keys) and the intern-time decision mask. Shard
// stores are scaffolding: they are built without witnesses (predecessor
// links are recomputed canonically during renumbering) and are released as
// soon as the final store is rebuilt.
type shard struct {
	mu    sync.RWMutex
	store StateStore
	// h1s/h2s mirror fpHash of every interned fingerprint in local-ID
	// order; masks holds the intern-time decision masks (see
	// Graph.ownMasks). All appended under mu's write lock.
	h1s   []uint64
	h2s   []uint64
	masks []uint8
	// maxLocal caps shard-local IDs so that every provisional ID stays
	// below intern.NoState.
	maxLocal uint64
}

// lookup resolves a fingerprint against the shard under the read lock —
// the fast path for the overwhelmingly common rediscovery of an
// already-interned state.
func (sh *shard) lookup(fp []byte) (StateID, bool) {
	sh.mu.RLock()
	id, ok := sh.store.Lookup(fp)
	sh.mu.RUnlock()
	return id, ok
}

// state reads a vertex's representative state under the read lock (spill
// shards may decode it from their fingerprint file; slice growth on other
// shards makes lock-free reads racy either way).
func (sh *shard) state(id StateID) system.State {
	sh.mu.RLock()
	st, _ := sh.store.State(id)
	sh.mu.RUnlock()
	return st
}

// intern stores a routed state under the write lock, re-checking the dedup
// index first (another worker may have interned the same state between the
// caller's read-locked lookup and here). total is the global vertex budget
// shared by all shards — a CAS reservation keeps the explored count from
// ever exceeding maxStates, so the overflow error is deterministic; nil
// exempts the caller (root interning, like the legacy engines). The store
// takes ownership of fp.
func (sh *shard) intern(fp string, st system.State, h1, h2 uint64, mask uint8, total *atomic.Int64, maxStates int) (StateID, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.store.Lookup(stringBytes(fp)); ok {
		return id, nil
	}
	if uint64(len(sh.h1s)) >= sh.maxLocal {
		return 0, fmt.Errorf("explore: sharded engine: provisional ID space exhausted (%d states in one shard)", len(sh.h1s))
	}
	if total != nil {
		for {
			cur := total.Load()
			if cur >= int64(maxStates) {
				return 0, &LimitError{Limit: maxStates, Explored: int(cur)}
			}
			if total.CompareAndSwap(cur, cur+1) {
				break
			}
		}
	}
	id, _ := sh.store.Intern(fp, st, pred{})
	sh.h1s = append(sh.h1s, h1)
	sh.h2s = append(sh.h2s, h2)
	sh.masks = append(sh.masks, mask)
	return id, nil
}

// shardExpansion is the result of expanding one frontier vertex on the
// sharded engine: the out-edges with provisional successor IDs. Unlike the
// legacy parallel engine there is no "fresh" side channel — workers intern
// discoveries directly into the owning shard and get real IDs back.
type shardExpansion struct {
	edges []Edge
	err   error
}

// shardedBuild is the in-flight state of one sharded graph construction.
type shardedBuild struct {
	sys    *system.System
	shards []*shard
	// bits is the provisional-ID split: prov = local<<bits | shard.
	bits uint
	// levelLens[L][s] is shard s's vertex count once level L was fully
	// discovered (levelLens[0] records the roots). Level L's shard-local
	// IDs are the range levelLens[L-1][s] … levelLens[L][s]-1: interning
	// is dense, so the level structure needs no per-vertex bookkeeping.
	levelLens [][]int
	// rootProvs are the root vertices, in input order, as provisional IDs.
	rootProvs []StateID
	edges     int
}

func newShardedBuild(sys *system.System, nshards int, opt BuildOptions) (*shardedBuild, error) {
	b := &shardedBuild{sys: sys, bits: shardBitsFor(nshards)}
	maxLocal := uint64(intern.NoState) >> b.bits
	for i := 0; i < nshards; i++ {
		// Shard stores are always ephemeral — the durable mode covers only
		// the final renumbered store, and GraphDir is rejected before the
		// sharded engine is selected (see validateDurable).
		store, err := newStore(opt.Store, sys, opt.SpillDir, "", false)
		if err != nil {
			b.close()
			return nil, err
		}
		b.shards = append(b.shards, &shard{store: store, maxLocal: maxLocal})
	}
	return b, nil
}

// close releases the shard stores' external resources (the spill backends'
// file descriptors). Deferred unconditionally by buildGraphSharded: by the
// time the build returns — a finished graph, an error, or a spill-write
// panic unwinding toward recoverSpillWrite — the shard stores are always
// dead scaffolding.
func (b *shardedBuild) close() {
	for _, sh := range b.shards {
		if s, ok := sh.store.(*spillStore); ok {
			_ = s.Close()
		}
	}
}

// prov packs a (shard, local) pair into a provisional StateID.
func (b *shardedBuild) prov(shardIdx int, local StateID) StateID {
	return local<<b.bits | StateID(shardIdx)
}

// split unpacks a provisional StateID.
func (b *shardedBuild) split(prov StateID) (shardIdx int, local StateID) {
	return int(prov & (1<<b.bits - 1)), prov >> b.bits
}

// route selects the owning shard of a fingerprint from its first hash.
func (b *shardedBuild) route(h1 uint64) int {
	return int(h1 % uint64(len(b.shards)))
}

// lens snapshots the current vertex count of every shard. Only called
// while the shards are quiescent (root interning, level barriers).
func (b *shardedBuild) lens() []int {
	lens := make([]int, len(b.shards))
	for i, sh := range b.shards {
		lens[i] = len(sh.h1s)
	}
	return lens
}

// frontierBetween lists the vertices interned between two shard-length
// snapshots as provisional IDs, shard-major in ascending local order — the
// one frontier order that keeps each shard's SetSuccs calls strictly
// increasing, as the adjacency contract requires.
func (b *shardedBuild) frontierBetween(prev, cur []int) []StateID {
	n := 0
	for s := range cur {
		n += cur[s] - prev[s]
	}
	frontier := make([]StateID, 0, n)
	for s := range b.shards {
		for local := prev[s]; local < cur[s]; local++ {
			frontier = append(frontier, b.prov(s, StateID(local)))
		}
	}
	return frontier
}

// expand applies every applicable task to one frontier vertex, routing
// each canonicalized successor to its owning shard: a read-locked lookup
// resolves rediscoveries, a miss interns immediately under the shard's
// write lock. buf is the worker's fingerprint scratch, returned for reuse.
func (b *shardedBuild) expand(provID StateID, out *shardExpansion, total *atomic.Int64, maxStates int, opt BuildOptions, buf []byte) []byte {
	// Shard interning runs on worker goroutines, where a spill-file write
	// failure (disk full) must not crash the process: convert the panic to
	// this item's error, as recoverSpillWrite does at the engine boundary.
	// Read-corruption panics stay fatal, as on the legacy engines.
	defer func() {
		switch r := recover().(type) {
		case nil:
		case spillWriteError:
			out.err = r.err
		default:
			panic(r)
		}
	}()
	if err := ctxErr(opt.Ctx); err != nil {
		out.err = err
		return buf
	}
	sys := b.sys
	s, local := b.split(provID)
	st := b.shards[s].state(local)
	for _, task := range sys.Tasks() {
		if !sys.Applicable(st, task) {
			continue
		}
		succ, act, err := sys.Apply(st, task)
		if err != nil {
			out.err = fmt.Errorf("explore: apply %v: %w", task, err)
			return buf
		}
		succ = canonical(opt.Symmetry, succ)
		buf = sys.AppendFingerprint(buf[:0], succ)
		h1, h2 := fpHash(buf)
		ts := b.route(h1)
		tl, ok := b.shards[ts].lookup(buf)
		if !ok {
			// The one owned copy of the fingerprint, made outside the
			// write lock; the shard store takes ownership.
			tl, err = b.shards[ts].intern(string(buf), succ, h1, h2, ownMask(sys, succ), total, maxStates)
			if err != nil {
				out.err = err
				return buf
			}
		}
		out.edges = append(out.edges, Edge{Task: task, Action: act, To: b.prov(ts, tl)})
	}
	return buf
}

// buildGraphSharded is the sharded engine behind BuildGraph (Shards >= 1):
// a level-synchronous BFS whose workers intern discoveries immediately
// into fingerprint-partitioned shards, followed by the deterministic
// renumber pass that rebuilds the final store. Progress reports aggregate
// across shards and are the exact sequence the legacy engines emit — level
// membership and cumulative counts are graph properties.
func buildGraphSharded(sys *system.System, roots []system.State, maxStates, workers, nshards int, opt BuildOptions) (*Graph, error) {
	b, err := newShardedBuild(sys, nshards, opt)
	if err != nil {
		return nil, err
	}
	defer b.close()
	// Roots: interned serially through the shards, exempt from the vertex
	// budget, like the legacy engines.
	buf := make([]byte, 0, 256)
	for _, r := range roots {
		r = canonical(opt.Symmetry, r)
		buf = sys.AppendFingerprint(buf[:0], r)
		h1, h2 := fpHash(buf)
		s := b.route(h1)
		local, err := b.shards[s].intern(string(buf), r, h1, h2, ownMask(sys, r), nil, 0)
		if err != nil {
			return nil, err
		}
		b.rootProvs = append(b.rootProvs, b.prov(s, local))
	}
	b.levelLens = append(b.levelLens, b.lens())
	// The budget counter starts at the root count, so the first discovery
	// past maxStates — and only that one — trips the limit, matching the
	// legacy engines' overflow point and Explored count exactly.
	var total atomic.Int64
	for _, n := range b.levelLens[0] {
		total.Add(int64(n))
	}
	frontier := b.frontierBetween(make([]int, nshards), b.levelLens[0])
	level := 0
	wbufs := make([][]byte, workers)
	for len(frontier) > 0 {
		results := make([]shardExpansion, len(frontier))
		parallelForScratch(wbufs, len(frontier), func(i int, wbuf *[]byte) {
			*wbuf = b.expand(frontier[i], &results[i], &total, maxStates, opt, *wbuf)
		})
		// Which worker observes a full budget first is scheduling; the
		// error itself is not — the CAS reservation pins Explored. Apply
		// and cancellation errors take precedence in frontier order, so a
		// deterministic failure beats the budget race.
		var firstErr, limitErr error
		for i := range results {
			e := results[i].err
			if e == nil {
				continue
			}
			var le *LimitError
			if errors.As(e, &le) {
				if limitErr == nil {
					limitErr = e
				}
			} else if firstErr == nil {
				firstErr = e
			}
		}
		if firstErr != nil {
			return nil, firstErr
		}
		if limitErr != nil {
			return nil, limitErr
		}
		// Level barrier: hand the buffered expansions to the shard
		// adjacency faces. The frontier is shard-major in ascending local
		// order, so each shard sees strictly increasing SetSuccs IDs; the
		// per-shard seal then lets spill shards move the level's edge
		// blocks out of RAM.
		for i, provID := range frontier {
			s, local := b.split(provID)
			b.shards[s].store.SetSuccs(local, results[i].edges)
			b.edges += len(results[i].edges)
		}
		for _, sh := range b.shards {
			sh.store.SealLevel()
		}
		prev := b.levelLens[len(b.levelLens)-1]
		b.levelLens = append(b.levelLens, b.lens())
		next := b.frontierBetween(prev, b.levelLens[len(b.levelLens)-1])
		if opt.Progress != nil {
			states := 0
			for _, n := range b.levelLens[len(b.levelLens)-1] {
				states += n
			}
			opt.Progress(Progress{Level: level, States: states, Edges: b.edges, Frontier: len(next)})
		}
		level++
		frontier = next
	}
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}
	g, err := b.renumber(opt)
	if err != nil {
		return nil, err
	}
	g.computeMasksParallel(workers)
	return g, nil
}

// vref locates one vertex of the provisional graph and carries its sort
// keys resident, so renumbering never touches the spill file except on a
// true 128-bit hash collision.
type vref struct {
	h1, h2       uint64
	shard, local uint32
}

// renumber is phase 2: sort each BFS level by (h1, h2, fingerprint),
// making the concatenated level-major order the final dense StateID space,
// then replay the provisional graph into a fresh store of the configured
// backend — vertices intern in final order, edge targets remap through the
// (shard, local) → final table, predecessor links are recomputed
// canonically, and intern-time masks permute along. Every input to this
// pass is content-derived (level membership, fingerprint hashes, task
// order), so the output graph is identical for any shard and worker count.
func (b *shardedBuild) renumber(opt BuildOptions) (*Graph, error) {
	nshards := len(b.shards)
	finalLens := b.levelLens[len(b.levelLens)-1]
	n := 0
	for _, ln := range finalLens {
		n += ln
	}
	order := make([]vref, 0, n)
	levelStarts := make([]int, 0, len(b.levelLens)+1)
	prev := make([]int, nshards)
	for _, lens := range b.levelLens {
		levelStarts = append(levelStarts, len(order))
		start := len(order)
		for s := 0; s < nshards; s++ {
			sh := b.shards[s]
			for local := prev[s]; local < lens[s]; local++ {
				order = append(order, vref{sh.h1s[local], sh.h2s[local], uint32(s), uint32(local)})
			}
			prev[s] = lens[s]
		}
		lvl := order[start:]
		sort.Slice(lvl, func(i, j int) bool {
			x, y := lvl[i], lvl[j]
			if x.h1 != y.h1 {
				return x.h1 < y.h1
			}
			if x.h2 != y.h2 {
				return x.h2 < y.h2
			}
			// A true 128-bit collision: break the tie on the canonical
			// fingerprint itself. Distinct vertices never compare equal,
			// so the order is total and the sort needs no stability.
			return b.shards[x.shard].store.Fingerprint(StateID(x.local)) <
				b.shards[y.shard].store.Fingerprint(StateID(y.local))
		})
	}
	levelStarts = append(levelStarts, len(order))
	localToFinal := make([][]StateID, nshards)
	for s := range localToFinal {
		localToFinal[s] = make([]StateID, finalLens[s])
	}
	for i, r := range order {
		localToFinal[r.shard][r.local] = StateID(i)
	}
	// The shards' dedup phase is over — from here they only serve reads by
	// local ID. Drop the sort keys and every shard's dedup index before
	// the final store builds its own, so peak residency holds one index,
	// not two.
	for _, sh := range b.shards {
		sh.h1s, sh.h2s = nil, nil
		releaseDedup(sh.store)
	}
	g, err := newGraph(b.sys, opt)
	if err != nil {
		return nil, err
	}
	witnesses := !opt.NoWitnesses
	// preds[i] is the canonical BFS-tree link of final vertex i: the first
	// in-edge in final-ID × task order, computed while sweeping the edges
	// of the level above. Deterministic by construction, unlike the
	// first-discoverer links a concurrent intern would record.
	var preds []pred
	if witnesses {
		preds = make([]pred, n)
	}
	g.ownMasks = make([]uint8, 0, n)
	var edges []Edge // scratch: SetSuccs copies
	for L := 0; L+1 < len(levelStarts); L++ {
		lo, hi := levelStarts[L], levelStarts[L+1]
		for i := lo; i < hi; i++ {
			r := order[i]
			sh := b.shards[r.shard]
			var p pred
			if witnesses {
				p = preds[i]
			}
			// Dense shards hand back their interned key, so the final
			// store retains the same string without copying.
			st, _ := sh.store.State(StateID(r.local))
			g.store.Intern(sh.store.Fingerprint(StateID(r.local)), st, p)
			g.ownMasks = append(g.ownMasks, sh.masks[r.local])
		}
		for i := lo; i < hi; i++ {
			r := order[i]
			edges = edges[:0]
			for e := range b.shards[r.shard].store.EdgesFrom(StateID(r.local)) {
				ts, tl := b.split(e.To)
				to := localToFinal[ts][tl]
				// BFS edges reach at most one level down; a target past
				// this level's end is a first-discovery candidate.
				if witnesses && int(to) >= hi && !preds[to].has {
					preds[to] = pred{from: StateID(i), task: e.Task, act: e.Action, has: true}
				}
				edges = append(edges, Edge{Task: e.Task, Action: e.Action, To: to})
			}
			g.store.SetSuccs(StateID(i), edges)
			g.edges += len(edges)
		}
		g.store.SealLevel()
	}
	g.roots = make([]StateID, len(b.rootProvs))
	for i, p := range b.rootProvs {
		s, local := b.split(p)
		g.roots[i] = localToFinal[s][local]
	}
	return g, nil
}
