package explore

import (
	"bytes"
	"fmt"
	"iter"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/ioa-lab/boosting/internal/intern"
	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/system"
)

// StoreKind selects the StateStore backend used to hold the vertices of
// G(C) during exploration.
type StoreKind int

// Store backends.
const (
	// StoreDense is the default backend: every canonical fingerprint is
	// interned exactly once (intern.Table) and kept for the lifetime of the
	// graph. Exact, and Fingerprint is a free slice lookup.
	StoreDense StoreKind = iota
	// StoreHash64 keys the dedup index by a 64-bit hash of the canonical
	// fingerprint instead of the fingerprint itself (the SPIN/TLC
	// hash-compaction move). Candidate matches are verified against the
	// stored representative state, so — unlike bitstate hashing — results
	// remain exact; hash collisions are audited (counted and resolved by
	// verification) rather than silently merging distinct states.
	StoreHash64
	// StoreHash128 is StoreHash64 with a second independent 64-bit hash per
	// vertex. The wider filter makes verification misses (true collisions)
	// vanishingly rare at large state counts, at +8 bytes per vertex.
	StoreHash128
	// StoreSpill is the disk-spilling backend (TLC-style fingerprint file):
	// the dedup index keeps 16 hash bytes plus a file offset per vertex in
	// RAM, while the canonical fingerprints — which double as the serialized
	// representative states — live in an append-only spill file and are read
	// back and decoded on demand. Adjacency spills too: successor blocks are
	// delta-varint encoded into a second append-only edge file, sealed at
	// level barriers and streamed back via pread. Exact, like the hash
	// backends; the graph is identical to the dense store's, with MaxStates
	// no longer bounded by resident state or edge memory.
	StoreSpill
)

// String renders the store kind.
func (k StoreKind) String() string {
	switch k {
	case StoreDense:
		return "dense"
	case StoreHash64:
		return "hash64"
	case StoreHash128:
		return "hash128"
	case StoreSpill:
		return "spill"
	default:
		return fmt.Sprintf("store(%d)", int(k))
	}
}

// VertexStore is the vertex face of the storage seam of G(C): the dedup
// index from canonical fingerprints to dense StateIDs, the representative
// states, and the (optional) BFS-tree predecessor links.
//
// IDs are assigned densely in interning order: the i-th distinct state gets
// ID i, so a BFS that interns states in discovery order gets BFS-numbered
// vertices for free.
//
// Bounds contract: every read accessor (State, Fingerprint, Pred) is total —
// an out-of-range ID yields the zero value (ok == false where the signature
// has an ok), never a panic, on every backend.
type VertexStore interface {
	// Len returns the number of stored vertices; valid IDs are 0 … Len()−1.
	Len() int
	// Lookup resolves a canonical fingerprint to its vertex, if stored. It
	// is the single lookup entry point: callers holding a string key pass it
	// through stringBytes without copying.
	Lookup(fp []byte) (StateID, bool)
	// Intern stores a vertex under its canonical fingerprint, assigning the
	// next dense ID if the fingerprint is new; fresh reports a new
	// assignment (the predecessor link is recorded only then, and only on
	// stores built with witnesses). The store takes ownership of fp —
	// callers hand over their one owned copy, so backends that retain the
	// encoding (dense) do not copy again.
	Intern(fp string, st system.State, p pred) (id StateID, fresh bool)
	// State returns the representative state of a vertex.
	State(id StateID) (system.State, bool)
	// Fingerprint returns the canonical string encoding of a vertex
	// ("" for out-of-range IDs — canonical encodings are never empty).
	Fingerprint(id StateID) string
	// Pred returns the BFS-tree predecessor link of a vertex (has == false
	// for roots, for out-of-range IDs, and always on stores built without
	// witnesses).
	Pred(id StateID) pred
}

// AdjacencyStore is the adjacency face of the storage seam: edges are handed
// to the store as they are discovered and read back as an iterator, so
// backends choose their own representation — one flat slice of packed
// 8-byte edges in RAM (dense, hash) or delta-varint blocks in an append-only
// edge file (spill).
//
// Write contract: SetSuccs is called exactly once per vertex, in strictly
// increasing ID order — both exploration engines expand vertices in ID order
// (the serial engine trivially, the parallel engine at its level barriers) —
// without gaps, and panics on an out-of-order ID. SetSuccs copies what it
// keeps and never retains the slice, so callers may reuse it for the next
// vertex (the engines do: one scratch slice, or a per-worker arena reset at
// each level barrier). SealLevel marks a level
// barrier: every edge handed over so far may be moved out of RAM (the spill
// backend flushes its pending blocks to the edge file). Engines call it
// after each completed BFS level, while they hold the store exclusively.
//
// Read contract: EdgesFrom is total (an out-of-range or not-yet-recorded ID
// yields an empty sequence) and, like the vertex accessors, safe for any
// number of concurrent readers as long as no SetSuccs/SealLevel/Intern call
// overlaps them. The yielded edges are exactly the SetSuccs slice, in order;
// breaking out of the iteration early is allowed and cheap. Targets is the
// label-free read of the same relation: it appends the To of every edge
// EdgesFrom would yield, in that order, to the caller's buffer and returns
// it — nothing for an out-of-range or not-yet-recorded ID — without resolving
// a label against any dictionary. Same totality, same concurrency rule; the
// sweeps that read nothing of an edge but its target (the valence and
// root-set fixpoints) call it with one reused buffer per goroutine.
type AdjacencyStore interface {
	// SetSuccs records the outgoing edges of a vertex (nil for a sink). The
	// slice is copied, not retained.
	SetSuccs(id StateID, edges []Edge)
	// EdgesFrom streams the outgoing edges of a vertex in recorded order.
	EdgesFrom(id StateID) iter.Seq[Edge]
	// Targets appends the successor IDs of a vertex to buf in recorded
	// order and returns the extended slice.
	Targets(id StateID, buf []StateID) []StateID
	// SealLevel marks a level barrier: edges recorded so far become
	// immutable and may leave RAM. A no-op on in-memory backends.
	SealLevel()
}

// StateStore is the storage seam of G(C): the vertex face plus the adjacency
// face. Graph and both exploration engines talk to storage only through this
// interface, so backends can trade memory for lookup cost (dense interned
// strings vs hash compaction) or spill vertices and edges to disk.
//
// Concurrency contract (inherited from intern.Table): any number of
// goroutines may call the read accessors concurrently as long as no
// Intern/SetSuccs/SealLevel call overlaps them. The level-synchronous
// parallel engine satisfies this by freezing the store while a frontier
// level expands and mutating it only at the level barrier.
//
// All bundled implementations live in this package; the interface
// deliberately uses the unexported pred type, so external implementations go
// through their own StoreKind here.
type StateStore interface {
	VertexStore
	AdjacencyStore
}

// stringBytes reinterprets a string as a read-only byte slice without
// copying, so string-keyed callers reach the single Lookup entry point with
// zero allocations. The returned slice must not be written to or retained
// past the call it is passed to.
func stringBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// newStore builds the backend for a kind. Hash backends re-encode stored
// states (via the system's canonical fingerprint appender) when verifying
// candidate matches; the spill backend additionally decodes states back out
// of their spilled fingerprints, and spillDir overrides where its spill
// files are created ("" = the OS temp directory). graphDir, when non-empty,
// puts the spill backend in durable mode: the files are created under that
// named directory instead of as unlinked temp files (see graphfiles.go).
// witnesses toggles the BFS-tree predecessor links: stores built without
// them record nothing in Intern and report pred{} from Pred.
func newStore(kind StoreKind, sys *system.System, spillDir, graphDir string, witnesses bool) (StateStore, error) {
	switch kind {
	case StoreHash64:
		return newHashStore(sys.AppendFingerprint, false, witnesses), nil
	case StoreHash128:
		return newHashStore(sys.AppendFingerprint, true, witnesses), nil
	case StoreSpill:
		return newSpillStore(sys, spillDir, graphDir, witnesses)
	default:
		return newDenseStore(witnesses), nil
	}
}

// labelDict is the small dictionary behind the packed in-RAM edges and
// predecessor links: the distinct tasks in first-seen order and, per task,
// the distinct actions seen on it. A system has a few dozen tasks and a
// handful of actions per task (21 and 7 on registervote n=3's 17.6M
// edges), so both levels are searched linearly — no map on the serial
// barrier — and an edge label shrinks from two structs of four string
// headers to two uint16 indices. The zero value is an empty dictionary.
type labelDict struct {
	tasks []ioa.Task
	acts  [][]ioa.Action // acts[t]: actions seen on tasks[t]
}

// index resolves a label to its dictionary indices, inserting it on first
// sight. hint is where the task scan starts: expansion emits a vertex's
// edges in sys.Tasks() order and the dictionary fills in that same order,
// so the task after the previous edge's is nearly always the first probe.
// The memoised transitions hand back pointer-identical strings, so the
// struct compares short-circuit without touching string bytes. A task
// whose action list is full continues in a second entry for the same task.
func (d *labelDict) index(task ioa.Task, act ioa.Action, hint int) (t, a uint16) {
	n, room := len(d.tasks), -1
	for k := 0; k < n; k++ {
		c := hint + k
		if c >= n {
			c -= n
		}
		if d.tasks[c] != task {
			continue
		}
		acts := d.acts[c]
		for i := range acts {
			if acts[i] == act {
				return uint16(c), uint16(i)
			}
		}
		if room < 0 && len(acts) <= math.MaxUint16 {
			room = c
		}
	}
	if room < 0 {
		if n > math.MaxUint16 {
			panic("explore: label dictionary: more than 65536 task entries")
		}
		room = n
		d.tasks = append(d.tasks, task)
		d.acts = append(d.acts, nil)
	}
	d.acts[room] = append(d.acts[room], act)
	return uint16(room), uint16(len(d.acts[room]) - 1)
}

// packedEdge is a stored edge: the target and the label's dictionary
// indices. Pointer-free, so the garbage collector never scans the edge
// relation.
type packedEdge struct {
	to        StateID
	task, act uint16
}

// packedAdjacency is the in-memory adjacency face shared by the dense and
// hash-compaction backends: every edge of the graph in one flat slice of
// 8-byte packedEdges, vertex id's at edges[ends[id-1]:ends[id]]. SetSuccs
// copies, so callers may reuse the slice they pass.
type packedAdjacency struct {
	labels labelDict
	edges  []packedEdge
	ends   []uint32 // one per recorded vertex
}

// SetSuccs packs a vertex's edges onto the end of the flat slice. Like the
// spill backend it relies on the write contract — one call per vertex, in
// increasing gap-free ID order — and panics on a violation.
func (a *packedAdjacency) SetSuccs(id StateID, edges []Edge) {
	if int(id) != len(a.ends) {
		panic(fmt.Sprintf("explore: SetSuccs(%d) out of order (next unrecorded vertex is %d)", id, len(a.ends)))
	}
	hint := 0
	for _, e := range edges {
		t, act := a.labels.index(e.Task, e.Action, hint)
		a.edges = append(a.edges, packedEdge{to: e.To, task: t, act: act})
		hint = int(t) + 1
	}
	if len(a.edges) > math.MaxUint32 {
		panic("explore: in-memory adjacency: more than 2^32 edges")
	}
	a.ends = append(a.ends, uint32(len(a.edges)))
}

func (a *packedAdjacency) EdgesFrom(id StateID) iter.Seq[Edge] {
	return func(yield func(Edge) bool) {
		if uint(id) >= uint(len(a.ends)) {
			return
		}
		lo := uint32(0)
		if id > 0 {
			lo = a.ends[id-1]
		}
		for _, e := range a.edges[lo:a.ends[id]] {
			if !yield(Edge{Task: a.labels.tasks[e.task], Action: a.labels.acts[e.task][e.act], To: e.to}) {
				return
			}
		}
	}
}

func (a *packedAdjacency) Targets(id StateID, buf []StateID) []StateID {
	if uint(id) >= uint(len(a.ends)) {
		return buf
	}
	lo := uint32(0)
	if id > 0 {
		lo = a.ends[id-1]
	}
	for _, e := range a.edges[lo:a.ends[id]] {
		buf = append(buf, e.to)
	}
	return buf
}

func (a *packedAdjacency) SealLevel() {}

// predTable holds the optional BFS-tree predecessor links of a backend,
// packed like the edges (8 bytes per vertex against its own labelDict;
// roots carry intern.NoState as their source). With keep == false
// (WithoutWitnesses) nothing is recorded and every Pred read is the zero
// link.
type predTable struct {
	keep   bool
	labels labelDict
	list   []packedEdge // to is the predecessor
}

func (p *predTable) add(pr pred) {
	if !p.keep {
		return
	}
	if !pr.has {
		p.list = append(p.list, packedEdge{to: intern.NoState})
		return
	}
	t, a := p.labels.index(pr.task, pr.act, 0)
	p.list = append(p.list, packedEdge{to: pr.from, task: t, act: a})
}

func (p *predTable) Pred(id StateID) pred {
	if uint(id) >= uint(len(p.list)) || p.list[id].to == intern.NoState {
		return pred{}
	}
	e := p.list[id]
	return pred{from: e.to, task: p.labels.tasks[e.task], act: p.labels.acts[e.task][e.act], has: true}
}

// denseStore is the interned-string backend: the intern.Table maps each
// canonical fingerprint (kept once, in full) to its dense ID, and states,
// adjacency and predecessor links are slices indexed by that ID.
type denseStore struct {
	packedAdjacency
	predTable
	tab    *intern.Table
	states []system.State
}

func newDenseStore(witnesses bool) *denseStore {
	return &denseStore{tab: intern.NewTable(1024), predTable: predTable{keep: witnesses}}
}

func (s *denseStore) Len() int { return s.tab.Len() }

func (s *denseStore) Lookup(fp []byte) (StateID, bool) { return s.tab.LookupBytes(fp) }

func (s *denseStore) Intern(fp string, st system.State, p pred) (StateID, bool) {
	id, fresh := s.tab.Intern(fp)
	if fresh {
		s.states = append(s.states, st)
		s.add(p)
	}
	return id, fresh
}

func (s *denseStore) State(id StateID) (system.State, bool) {
	if uint(id) >= uint(len(s.states)) {
		return system.State{}, false
	}
	return s.states[id], true
}

func (s *denseStore) Fingerprint(id StateID) string {
	if uint(id) >= uint(s.tab.Len()) {
		return ""
	}
	return s.tab.Key(id)
}

// fpHash returns two independent 64-bit FNV-1a–style hashes of a canonical
// fingerprint, computed in one pass. Deterministic across runs (unlike
// maphash), so collision counts are reproducible. String keys reach it
// zero-copy through stringBytes.
func fpHash(fp []byte) (h1, h2 uint64) {
	const (
		offset1 = 14695981039346656037 // FNV-1a offset basis
		prime1  = 1099511628211        // FNV-1a prime
		offset2 = 0x9e3779b97f4a7c15   // golden-ratio offset for the second stream
		prime2  = 0x100000001b5        // shifted FNV prime
	)
	h1, h2 = offset1, offset2
	for i := 0; i < len(fp); i++ {
		h1 = (h1 ^ uint64(fp[i])) * prime1
		h2 = (h2 ^ uint64(fp[i])) * prime2
	}
	// Finalize the second stream so it is not a linear shadow of the first.
	h2 ^= h2 >> 29
	h2 *= 0xbf58476d1ce4e5b9
	h2 ^= h2 >> 32
	return h1, h2
}

// lookupBucket scans the candidates interned under h1 for an exact match:
// wide backends (hash2 non-nil) pre-filter on the second hash, then each
// surviving candidate is verified byte-for-byte by the backend's matcher;
// candidates the verification refutes are audited in collisions. This is
// the one probe loop shared by the hash-compaction and spill backends.
// Matchers are passed as struct-field funcs bound at construction, so
// probing allocates nothing.
func lookupBucket(buckets map[uint64][]StateID, hash2 []uint64,
	fp []byte, h1, h2 uint64, matches func(StateID, []byte) bool, collisions *atomic.Int64) (StateID, bool) {
	for _, id := range buckets[h1] {
		if hash2 != nil && hash2[id] != h2 {
			continue
		}
		if matches(id, fp) {
			return id, true
		}
		collisions.Add(1)
	}
	return 0, false
}

// hashStore is the hash-compaction backend: the dedup index is keyed by a
// 64-bit fingerprint hash (optionally filtered by a second 64-bit hash),
// and the canonical string itself is never stored — per vertex it keeps
// only the representative state, adjacency, predecessor link and 8–16 hash
// bytes. Candidate matches are verified exactly by re-encoding the stored
// representative state, so distinct states that collide in the hash are
// kept apart (and counted), never merged: the produced graph is identical
// to the dense backend's.
type hashStore struct {
	packedAdjacency
	predTable
	enc  func([]byte, system.State) []byte
	wide bool
	// hash is fpHash, replaceable in tests to force collisions and exercise
	// the verification path.
	hash func([]byte) (uint64, uint64)
	// matchB is the matches method bound once at construction, so
	// lookupBucket calls allocate no closures.
	matchB  func(StateID, []byte) bool
	buckets map[uint64][]StateID
	hash2   []uint64 // second hash per vertex (wide only)
	states  []system.State
	// collisions counts verification misses: bucket candidates whose
	// fingerprint turned out to differ (atomic — Lookup runs concurrently
	// during frozen-store frontier expansion).
	collisions atomic.Int64
	bufs       sync.Pool
}

func newHashStore(enc func([]byte, system.State) []byte, wide, witnesses bool) *hashStore {
	s := &hashStore{
		enc:       enc,
		wide:      wide,
		hash:      fpHash,
		buckets:   make(map[uint64][]StateID, 1024),
		predTable: predTable{keep: witnesses},
		bufs:      sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }},
	}
	s.matchB = s.matches
	return s
}

func (s *hashStore) Len() int { return len(s.states) }

// matches verifies a candidate exactly: the stored representative state is
// re-encoded and compared byte-for-byte against the probe fingerprint.
func (s *hashStore) matches(id StateID, fp []byte) bool {
	bufp := s.bufs.Get().(*[]byte)
	buf := s.enc((*bufp)[:0], s.states[id])
	eq := bytes.Equal(buf, fp)
	*bufp = buf
	s.bufs.Put(bufp)
	return eq
}

func (s *hashStore) Lookup(fp []byte) (StateID, bool) {
	h1, h2 := s.hash(fp)
	return lookupBucket(s.buckets, s.hash2, fp, h1, h2, s.matchB, &s.collisions)
}

func (s *hashStore) Intern(fp string, st system.State, p pred) (StateID, bool) {
	key := stringBytes(fp)
	h1, h2 := s.hash(key)
	if id, ok := lookupBucket(s.buckets, s.hash2, key, h1, h2, s.matchB, &s.collisions); ok {
		return id, false
	}
	id := StateID(len(s.states))
	s.buckets[h1] = append(s.buckets[h1], id)
	if s.wide {
		s.hash2 = append(s.hash2, h2)
	}
	s.states = append(s.states, st)
	s.add(p)
	return id, true
}

func (s *hashStore) State(id StateID) (system.State, bool) {
	if uint(id) >= uint(len(s.states)) {
		return system.State{}, false
	}
	return s.states[id], true
}

// Fingerprint re-encodes the representative state: hash compaction does not
// keep canonical strings, it reconstructs them on demand. The encoding goes
// through the pooled buffers, so the only allocation is the returned string.
func (s *hashStore) Fingerprint(id StateID) string {
	if uint(id) >= uint(len(s.states)) {
		return ""
	}
	bufp := s.bufs.Get().(*[]byte)
	buf := s.enc((*bufp)[:0], s.states[id])
	fp := string(buf)
	*bufp = buf
	s.bufs.Put(bufp)
	return fp
}

// Collisions reports how many hash collisions (distinct canonical
// fingerprints sharing a bucket) verification resolved — the collision
// audit of the compaction scheme. Zero on the dense backend by
// construction.
func (s *hashStore) Collisions() int { return int(s.collisions.Load()) }

// StoreCollisions reports the audited hash-collision count of a graph's
// backend (0 for backends that do not hash).
func StoreCollisions(g *Graph) int {
	switch s := g.store.(type) {
	case *hashStore:
		return s.Collisions()
	case *spillStore:
		return int(s.collisions.Load())
	}
	return 0
}
