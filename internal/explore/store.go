package explore

import (
	"encoding/binary"
	"fmt"
	"iter"
	"math"
	"unsafe"

	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/system"
)

// StoreKind selects where a build keeps the edges of G(C). Every build keeps
// its vertices in the one vertex store (denseStore); the kind picks the
// adjacency behind it.
type StoreKind int

// Store backends.
const (
	// StoreDense is the default backend, all in RAM: the vertex store plus
	// every edge as an 8-byte packed edge in fixed-capacity segments.
	StoreDense StoreKind = iota
	// StoreSpill is the same vertex store with the adjacency in a file:
	// successor blocks are delta-varint encoded into an append-only edge
	// file, sealed at level barriers and streamed back via pread, so the
	// edge relation — 7–8 edges a vertex — stays off the heap. A durable
	// build (GraphDir) also commits every vertex's canonical fingerprint to
	// disk and reopens by decoding them. The graph is identical to the dense
	// store's.
	StoreSpill
)

// String renders the store kind.
func (k StoreKind) String() string {
	switch k {
	case StoreDense:
		return "dense"
	case StoreSpill:
		return "spill"
	default:
		return fmt.Sprintf("store(%d)", int(k))
	}
}

// AdjacencyStore is the edge side of G(C): edges are handed to the store as
// 8-byte packedEdges — the target and the label sys.Step gave the transition
// — and read back as an iterator of Edges with the label resolved, so
// backends choose their own representation: the packedEdges verbatim in
// fixed-capacity segments (dense) or delta-varint blocks against two
// persisted dictionaries in an append-only edge file (spill).
//
// Write contract: SetSuccs is called exactly once per vertex, in strictly
// increasing ID order — both level bodies expand vertices in ID order (the
// inline body trivially, the worker pool at its level barriers) — without
// gaps, and panics on an out-of-order ID. SetSuccs copies what it keeps and
// never retains the slice, so callers may reuse it for the next vertex (the
// loops do: one scratch slice, or a per-worker arena of packedEdges reset at
// each level barrier). The labels are those of the System the store was made
// for. SealLevel marks a level barrier: every edge handed over so far
// may be moved out of RAM (the spill backend flushes its pending blocks to
// the edge file). The loop calls it after each completed BFS level, while
// it holds the graph exclusively.
//
// Read contract: EdgesFrom is total (an out-of-range or not-yet-recorded ID
// yields an empty sequence) and safe for any number of concurrent readers as
// long as no SetSuccs/SealLevel call overlaps them. The yielded edges are
// the SetSuccs slice, resolved, in order; breaking out of the iteration early
// is allowed and cheap. Targets is the label-free read of the same relation:
// it appends the To of every edge EdgesFrom would yield, in that order, to
// the caller's buffer and returns it — nothing for an out-of-range or
// not-yet-recorded ID — without resolving a label. Same totality, same
// concurrency rule; the sweeps that read nothing of an edge but its target
// (the valence and root-set fixpoints) call it with one reused buffer.
type AdjacencyStore interface {
	// SetSuccs records the outgoing edges of a vertex (nil for a sink). The
	// slice is copied, not retained.
	SetSuccs(id StateID, edges []packedEdge)
	// EdgesFrom streams the outgoing edges of a vertex in recorded order.
	EdgesFrom(id StateID) iter.Seq[Edge]
	// Targets appends the successor IDs of a vertex to buf in recorded
	// order and returns the extended slice.
	Targets(id StateID, buf []StateID) []StateID
	// SealLevel marks a level barrier: edges recorded so far become
	// immutable and may leave RAM. A no-op on the in-memory backend.
	SealLevel()
}

// stringBytes reinterprets a string as a read-only byte slice without
// copying, so string-keyed callers reach the single Lookup entry point with
// zero allocations. The returned slice must not be written to or retained
// past the call it is passed to.
func stringBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// packedEdge is an edge as the level loops write it and the in-RAM backend
// stores it: the target and the transition's label (task index, action
// number), which the building System resolves. Pointer-free, so the garbage
// collector never scans the edge relation. As a predecessor link, to is the
// source and noState marks a root.
type packedEdge struct {
	to StateID
	system.Label
}

// Segment capacities of the vertex store and the in-RAM adjacency, chosen by the sweep of E40: large
// enough that the directories stay tiny, small enough that a graph of a few
// thousand vertices does not pay for a tail it never fills.
const (
	vertexSegment = 1024 // vertices per keys and states segment
	edgeShift     = 13   // an edge's virtual offset is segment<<edgeShift | offset
	edgeSegment   = 1 << edgeShift
	edgeMask      = edgeSegment - 1
)

// packedAdjacency is the dense backend's adjacency: every edge of the
// graph as an 8-byte packedEdge in append-only segments that are allocated at
// full capacity and never reallocated, so recording an edge never moves one
// already stored. A vertex's edges are one contiguous run inside one segment:
// a run that does not fit the tail of the last segment starts the next one,
// and a run longer than a segment gets a segment of its own length, so any
// degree stores. ends[id] is the virtual offset — segment<<edgeShift | offset —
// past vertex id's last edge; its run starts at ends[id-1], or at the next
// segment base when it would not have fitted there (run). Labels are resolved
// by sys on the way out. SetSuccs copies, so callers may reuse the slice they
// pass.
type packedAdjacency struct {
	sys    *system.System
	segCap int            // edgeSegment; smaller in tests
	edges  [][]packedEdge // by segment number; nil where a long run's offsets passed over
	ends   []uint32       // one per recorded vertex
}

// SetSuccs copies a vertex's edges onto the end of the last segment, or of a
// new one. Like the spill backend it relies on the write contract — one call
// per vertex, in increasing gap-free ID order — and panics on a violation.
func (a *packedAdjacency) SetSuccs(id StateID, edges []packedEdge) {
	if int(id) != len(a.ends) {
		panic(fmt.Sprintf("explore: SetSuccs(%d) out of order (next unrecorded vertex is %d)", id, len(a.ends)))
	}
	end := uint64(0)
	if id > 0 {
		end = uint64(a.ends[id-1])
	}
	if n := len(edges); n > 0 {
		fresh := int(end>>edgeShift) >= len(a.edges) || int(end&edgeMask)+n > a.segCap
		if fresh {
			end = (end + edgeMask) &^ edgeMask // the next segment base
		}
		if end+uint64(n) > math.MaxUint32 {
			panic("explore: in-memory adjacency: more than 2^32 edges")
		}
		seg := int(end >> edgeShift)
		if fresh {
			a.edges = append(a.edges, make([][]packedEdge, seg+1-len(a.edges))...)
			a.edges[seg] = make([]packedEdge, 0, max(n, a.segCap))
		}
		a.edges[seg] = append(a.edges[seg], edges...)
		end += uint64(n)
	}
	a.ends = append(a.ends, uint32(end))
}

// run returns the stored edges of a recorded vertex. A run never straddles a
// segment base unless it starts on one, so a start from which it would have
// is the tail SetSuccs skipped.
func (a *packedAdjacency) run(id StateID) []packedEdge {
	lo, hi := uint32(0), a.ends[id]
	if id > 0 {
		lo = a.ends[id-1]
	}
	if lo == hi {
		return nil
	}
	if int(lo&edgeMask)+int(hi-lo) > a.segCap {
		lo = (lo + edgeMask) &^ edgeMask
	}
	return a.edges[lo>>edgeShift][lo&edgeMask:][:hi-lo]
}

func (a *packedAdjacency) EdgesFrom(id StateID) iter.Seq[Edge] {
	return func(yield func(Edge) bool) {
		if uint(id) >= uint(len(a.ends)) {
			return
		}
		var out Edge // resolved in place: an Edge is 112 bytes of mostly strings
		tasks := a.sys.Tasks()
		for _, e := range a.run(id) {
			out.To = e.to
			out.Task = tasks[e.Task]
			_, out.Action = a.sys.Resolve(e.Label)
			if !yield(out) {
				return
			}
		}
	}
}

func (a *packedAdjacency) Targets(id StateID, buf []StateID) []StateID {
	if uint(id) >= uint(len(a.ends)) {
		return buf
	}
	for _, e := range a.run(id) {
		buf = append(buf, e.to)
	}
	return buf
}

func (a *packedAdjacency) SealLevel() {}

// predTable holds the optional BFS-tree predecessor links of a backend, one
// packedEdge per vertex. resolve turns a link's label back into the task and
// action: the building System's Resolve, or the persisted dictionaries of a
// reopened graph. With keep == false (WithoutWitnesses) nothing is recorded
// and every Pred read is the zero link.
type predTable struct {
	keep    bool
	resolve func(system.Label) (ioa.Task, ioa.Action)
	list    []packedEdge // to is the predecessor
}

func (p *predTable) add(link packedEdge) {
	if p.keep {
		p.list = append(p.list, link)
	}
}

func (p *predTable) Pred(id StateID) pred {
	if uint(id) >= uint(len(p.list)) || p.list[id].to == noState {
		return pred{}
	}
	task, act := p.resolve(p.list[id].Label)
	return pred{from: p.list[id].to, task: task, act: act, has: true}
}

// denseStore is the vertex store of every graph, whichever StoreKind holds
// its edges: the dedup index from states to dense StateIDs, the
// representative states and the optional BFS-tree predecessor links. A
// vertex is keyed on its cell-index tuple (system.AppendKey): every key has
// the same length, so the keys sit end to end in byte segments of vseg
// vertices each — allocated at full capacity and never reallocated, like the
// edge segments — and the dedup index is an open-addressed table of vertex
// numbers over them: linear probing, an exact compare on the stride, rebuilt
// from the stored keys when it doubles. Neither holds a pointer, so the
// garbage collector never scans them, and a vertex costs its key plus 8–16
// table bytes on top of the representative state, which sits in segments of
// the same length. Canonical fingerprints are not kept: Fingerprint encodes
// the state when asked.
//
// Keys are the store's business: within one store equal keys mean equal
// canonical fingerprints and the reverse, so callers get them from AppendKey
// or AppendSuccKey and hand them straight back to Lookup and Intern, and
// never show, persist or order by them. IDs are assigned densely in
// interning order, so a BFS that interns states in discovery order gets
// BFS-numbered vertices for free.
//
// Bounds contract: every read accessor (State, Fingerprint, Pred) is total —
// an out-of-range ID yields the zero value, never a panic; so are the two
// lookups, for any bytes at all. Any number of goroutines may call AppendKey,
// the lookups and the read accessors concurrently as long as no Intern
// overlaps them: the worker pool freezes the store while a level expands and
// interns only at the level barrier.
type denseStore struct {
	predTable
	sys    *system.System
	stride int              // key bytes per vertex
	vseg   StateID          // vertexSegment; smaller in tests
	n      int              // vertices stored
	keys   [][]byte         // vertex id's key at keys[id/vseg][id%vseg*stride:][:stride]
	states [][]system.State // vertex id's state at states[id/vseg][id%vseg]
	table  []uint32         // 0 = empty, else vertex id + 1; len is a power of two
	// hash is keyHash, replaceable in tests to force every key into one
	// probe chain.
	hash func([]byte) uint64
}

// denseInitialSlots is the index's starting size; it doubles whenever it
// would be more than half full.
const denseInitialSlots = 2048

func newDenseStore(sys *system.System, witnesses bool) *denseStore {
	return &denseStore{
		predTable: predTable{keep: witnesses, resolve: sys.Resolve},
		sys:       sys,
		stride:    4 * (len(sys.ProcessIDs()) + len(sys.ServiceIDs())),
		vseg:      vertexSegment,
		table:     make([]uint32, denseInitialSlots),
		hash:      keyHash,
	}
}

// keyHash mixes a cell-index tuple one index at a time. It only places keys
// in the probe table, so it needs no stability across runs.
func keyHash(key []byte) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for ; len(key) >= 4; key = key[4:] {
		h = (h ^ uint64(binary.LittleEndian.Uint32(key))) * 0xbf58476d1ce4e5b9
	}
	return h ^ h>>32
}

// Len returns the number of stored vertices; valid IDs are 0 … Len()−1.
func (s *denseStore) Len() int { return s.n }

// AppendKey appends the index key of st to dst, allocating nothing beyond
// growing dst.
func (s *denseStore) AppendKey(dst []byte, st system.State) []byte {
	return s.sys.AppendKey(dst, st)
}

// AppendSuccKey appends the key of st.With(d) without building that state,
// where key is AppendKey of st and d a delta sys.Step returned for st: a copy
// of key with the at most two indices d replaced overwritten.
func (s *denseStore) AppendSuccKey(dst, key []byte, d system.Delta) []byte {
	return s.sys.AppendSuccKey(dst, key, d)
}

func (s *denseStore) key(id StateID) []byte {
	return s.keys[id/s.vseg][int(id%s.vseg)*s.stride:][:s.stride]
}

// probe walks key's chain to its vertex or to the empty slot that ends the
// chain, whose position it then reports. The table is never full.
func (s *denseStore) probe(key []byte) (id StateID, slot uint64, ok bool) {
	mask := uint64(len(s.table) - 1)
	for slot = s.hash(key) & mask; ; slot = (slot + 1) & mask {
		e := s.table[slot]
		if e == 0 {
			return 0, slot, false
		}
		if string(s.key(StateID(e-1))) == string(key) {
			return StateID(e - 1), slot, true
		}
	}
}

// Lookup resolves a key to its vertex, if stored.
func (s *denseStore) Lookup(key []byte) (StateID, bool) {
	if len(key) != s.stride {
		return 0, false
	}
	id, _, ok := s.probe(key)
	return id, ok
}

// LookupFingerprint decodes the fingerprint into cells and probes with their
// key. A well-formed fingerprint of a state this System never produced
// interns its components on the way and then misses.
func (s *denseStore) LookupFingerprint(fp string) (StateID, bool) {
	st, err := s.sys.ParseFingerprint(fp)
	if err != nil {
		return 0, false
	}
	var buf [64]byte
	return s.Lookup(s.sys.AppendKey(buf[:0], st))
}

// Intern stores a vertex under its key, assigning the next dense ID if the
// key is new; fresh reports a new assignment. The predecessor link — p.to is
// the predecessor, noState for a root — is recorded only then, and only on a
// store kept with witnesses. The key is copied.
func (s *denseStore) Intern(key []byte, st system.State, p packedEdge) (StateID, bool) {
	if len(key) != s.stride {
		panic(fmt.Sprintf("explore: dense store: %d-byte key, the stride is %d", len(key), s.stride))
	}
	id, slot, ok := s.probe(key)
	if ok {
		return id, false
	}
	if s.n >= math.MaxUint32 {
		panic("explore: dense store: more than 2^32 − 1 vertices")
	}
	seg := s.n / int(s.vseg)
	if seg == len(s.keys) {
		s.keys = append(s.keys, make([]byte, 0, int(s.vseg)*s.stride))
		s.states = append(s.states, make([]system.State, 0, s.vseg))
	}
	s.keys[seg] = append(s.keys[seg], key...)
	s.states[seg] = append(s.states[seg], st)
	s.add(p)
	s.n++
	s.table[slot] = uint32(s.n)
	if 2*s.n > len(s.table) {
		s.grow()
	}
	return StateID(s.n - 1), true
}

// grow doubles the table and places every vertex again, hashing its stored key.
func (s *denseStore) grow() {
	s.table = make([]uint32, 2*len(s.table))
	for id := range StateID(s.n) {
		_, slot, _ := s.probe(s.key(id))
		s.table[slot] = uint32(id) + 1
	}
}

// State returns the representative state of a vertex.
func (s *denseStore) State(id StateID) (system.State, bool) {
	if uint(id) >= uint(s.n) {
		return system.State{}, false
	}
	return s.states[id/s.vseg][id%s.vseg], true
}

// Fingerprint returns the canonical string encoding of a vertex ("" for
// out-of-range IDs — canonical encodings are never empty).
func (s *denseStore) Fingerprint(id StateID) string {
	st, ok := s.State(id)
	if !ok {
		return ""
	}
	return s.sys.Fingerprint(st)
}
