package explore

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"github.com/ioa-lab/boosting/internal/system"
)

// spillBatch is the default size of the in-RAM pending window: interned
// states stay resident until the window fills, then the whole window
// rotates out to the spill file. On small graphs (levels under the window
// size) a frontier vertex is still resident when the next level expands
// it, so exploration never touches the disk; on the large builds the
// backend targets, levels outgrow the window and most frontier expansions
// decode their state from the spill file (the GraphSpillStats.Reads
// counter makes this visible). The window's job is bounding resident
// bytes, not guaranteeing hot-path hits.
const spillBatch = 1024

// spillStore is the disk-spilling backend (the TLC fingerprint-file move):
// per vertex, RAM keeps only the dedup index entry — two independent 64-bit
// fingerprint hashes and the offset/length of the fingerprint in the spill
// file — plus the optional predecessor link. The canonical fingerprint
// itself, which doubles as the serialized representative state
// (system.ParseFingerprint is its exact inverse), lives in an append-only
// spill file and is read back and decoded on demand. Adjacency spills too:
// successor blocks are delta-varint encoded into a second append-only edge
// file (see spilledges.go), sealed at level barriers and streamed back via
// pread, so neither face of the graph pins O(edges) RAM.
//
// Exactness: candidate matches are verified byte-for-byte against the
// stored fingerprint (read from the pending window or the spill file), so
// hash collisions are audited and resolved, never merged — the produced
// graph is identical to the dense backend's.
//
// Write protocol: Intern appends the fingerprint to the buffered spill
// writer immediately and keeps (fingerprint, state) in the pending window;
// once the window holds spillBatch entries the writer is flushed and the
// window rotates. Intern only runs while the store is mutable (serially, at
// level barriers in the parallel engine), so rotation never races a reader.
// Reads of rotated vertices use pread (os.File.ReadAt), which is safe from
// any number of goroutines while the store is frozen.
//
// The file set lives behind the graphFiles abstraction: in ephemeral
// mode (the default) the files are created in spillDir and unlinked
// immediately, so the kernel reclaims them when the descriptors close —
// at the latest when the store is garbage collected (the os package
// attaches a close finalizer) — and nothing leaks even on a crash. In
// durable mode (BuildOptions.GraphDir) the same files are created under
// a named directory and kept; commitDurable adds the index and manifest
// after the build, and OpenGraph reattaches the store read-only.
type spillStore struct {
	spillEdges
	predTable
	sys *system.System // encodes keys, decodes spilled fingerprints
	// hash is fpHash, replaceable in tests to force collisions and exercise
	// the disk-verification path.
	hash    func([]byte) (uint64, uint64)
	buckets map[uint64][]StateID
	hash2   []uint64 // second hash per vertex (the wide filter)
	offs    []int64  // spill-file offset of each vertex's fingerprint
	lens    []uint32 // fingerprint length in bytes

	files *graphFiles
	file  *os.File // files.fp, the hot-path handle
	w     *bufio.Writer
	wOff  int64 // next append offset

	// readonly marks a store reattached by OpenGraph: the graph is
	// complete, so Intern and SetSuccs must never be called.
	readonly bool

	// Pending window: vertices pendingBase … Len()−1 are still resident.
	// pendingFps/pendingStates are indexed by id − pendingBase.
	batch         int
	pendingBase   int
	pendingFps    []string
	pendingStates []system.State

	collisions atomic.Int64
	reads      atomic.Int64 // fingerprint reads served from the spill file
	bufs       sync.Pool
}

func newSpillStore(sys *system.System, spillDir, graphDir string, witnesses bool) (*spillStore, error) {
	var files *graphFiles
	var err error
	if graphDir != "" {
		files, err = newDurableGraphFiles(graphDir)
	} else {
		files, err = newEphemeralGraphFiles(spillDir)
	}
	if err != nil {
		return nil, err
	}
	s := &spillStore{
		sys:       sys,
		hash:      fpHash,
		buckets:   make(map[uint64][]StateID, 1024),
		predTable: predTable{keep: witnesses, resolve: sys.Resolve},
		files:     files,
		file:      files.fp,
		w:         bufio.NewWriterSize(files.fp, 64<<10),
		batch:     spillBatch,
		bufs:      sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }},
	}
	s.spillEdges.init(files.edges, s)
	return s, nil
}

func (s *spillStore) Len() int { return len(s.offs) }

// spillWriteError carries an environmental spill-file write failure (disk
// full, quota) out of Intern or SealLevel, whose StateStore signatures have
// no error return. BuildGraph recovers it at the engine boundary and returns
// it as an ordinary build error — unlike read failures, which really are
// unrecoverable corruption (the store rereads only bytes it wrote to
// unlinked files nothing else can touch) and stay panics.
type spillWriteError struct{ err error }

// recoverSpillWrite converts a spillWriteError panic into the build's error
// return, dropping the partial graph, whose descriptors BuildGraph's own
// deferred release has closed by then; every other panic value is re-raised.
// Deferred by BuildGraph, so both level loops (the worker pool interns on
// the coordinating goroutine) surface disk-full cleanly instead of crashing.
func recoverSpillWrite(g **Graph, err *error) {
	switch r := recover().(type) {
	case nil:
	case spillWriteError:
		*g, *err = nil, r.err
	default:
		panic(r)
	}
}

// readFp reads the fingerprint of a rotated vertex from the spill file into
// buf (grown as needed). The store has no way to surface I/O errors through
// the StateStore interface; a failing read of bytes the store itself wrote
// is unrecoverable corruption, so it panics with context.
func (s *spillStore) readFp(id StateID, buf []byte) []byte {
	n := int(s.lens[id])
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := s.file.ReadAt(buf, s.offs[id]); err != nil {
		panic(fmt.Sprintf("explore: spill store: read fingerprint of state %d: %v", id, err))
	}
	s.reads.Add(1)
	return buf
}

// matches verifies a candidate exactly against its stored fingerprint:
// resident candidates compare in RAM, rotated ones are read back from the
// spill file.
func (s *spillStore) matches(id StateID, fp []byte) bool {
	if int(id) >= s.pendingBase {
		return string(fp) == s.pendingFps[int(id)-s.pendingBase]
	}
	bufp := s.bufs.Get().(*[]byte)
	buf := s.readFp(id, (*bufp)[:0])
	eq := bytes.Equal(buf, fp)
	*bufp = buf
	s.bufs.Put(bufp)
	return eq
}

// AppendKey appends the canonical fingerprint: the spill store keys on the
// bytes it persists.
func (s *spillStore) AppendKey(dst []byte, st system.State) []byte {
	return s.sys.AppendFingerprint(dst, st)
}

// AppendSuccKey concatenates st's component encodings with d's substituted.
func (s *spillStore) AppendSuccKey(dst, _ []byte, st system.State, d system.Delta) []byte {
	return s.sys.AppendSuccFingerprint(dst, st, d)
}

// lookupBucket scans the candidates interned under h1 for an exact match:
// the second hash pre-filters, then each surviving candidate is verified
// byte-for-byte; candidates the verification refutes are audited in
// collisions.
func (s *spillStore) lookupBucket(fp []byte, h1, h2 uint64) (StateID, bool) {
	for _, id := range s.buckets[h1] {
		if s.hash2[id] != h2 {
			continue
		}
		if s.matches(id, fp) {
			return id, true
		}
		s.collisions.Add(1)
	}
	return 0, false
}

func (s *spillStore) Lookup(fp []byte) (StateID, bool) {
	h1, h2 := s.hash(fp)
	return s.lookupBucket(fp, h1, h2)
}

func (s *spillStore) LookupFingerprint(fp string) (StateID, bool) {
	return s.Lookup(stringBytes(fp))
}

func (s *spillStore) Intern(fp string, st system.State, p packedEdge) (StateID, bool) {
	if s.readonly {
		panic("explore: spill store: Intern on a reopened read-only graph")
	}
	key := stringBytes(fp)
	h1, h2 := s.hash(key)
	if id, ok := s.lookupBucket(key, h1, h2); ok {
		return id, false
	}
	id := StateID(len(s.offs))
	s.buckets[h1] = append(s.buckets[h1], id)
	s.hash2 = append(s.hash2, h2)
	if _, err := s.w.WriteString(fp); err != nil {
		panic(spillWriteError{fmt.Errorf("explore: spill store: append fingerprint of state %d: %w", id, err)})
	}
	s.offs = append(s.offs, s.wOff)
	s.lens = append(s.lens, uint32(len(fp)))
	s.wOff += int64(len(fp))
	s.add(p)
	s.pendingFps = append(s.pendingFps, fp)
	s.pendingStates = append(s.pendingStates, st)
	if len(s.pendingFps) >= s.batch {
		s.rotate()
	}
	return id, true
}

// rotate flushes the buffered writer and empties the pending window: every
// vertex becomes disk-resident. Only called from Intern, which holds the
// store's exclusive (mutable) phase, so no reader observes a half-rotated
// window.
func (s *spillStore) rotate() {
	if err := s.w.Flush(); err != nil {
		panic(spillWriteError{fmt.Errorf("explore: spill store: flush spill file: %w", err)})
	}
	s.pendingBase = len(s.offs)
	// Clear before truncating so the backing arrays drop their references
	// and the rotated states/fingerprints become collectable.
	clear(s.pendingFps)
	clear(s.pendingStates)
	s.pendingFps = s.pendingFps[:0]
	s.pendingStates = s.pendingStates[:0]
}

func (s *spillStore) State(id StateID) (system.State, bool) {
	if uint(id) >= uint(len(s.offs)) {
		return system.State{}, false
	}
	if int(id) >= s.pendingBase {
		return s.pendingStates[int(id)-s.pendingBase], true
	}
	st, err := s.sys.ParseFingerprint(s.Fingerprint(id))
	if err != nil {
		// The bounds guard above already answered out-of-range; failing
		// to decode bytes the store itself wrote is unrecoverable
		// corruption, kept as a panic by design.
		//lint:boostvet-ignore storebounds — corruption of self-written spill bytes, not a bounds miss
		panic(fmt.Sprintf("explore: spill store: decode state %d: %v", id, err))
	}
	return st, true
}

func (s *spillStore) Fingerprint(id StateID) string {
	if uint(id) >= uint(len(s.offs)) {
		return ""
	}
	if int(id) >= s.pendingBase {
		return s.pendingFps[int(id)-s.pendingBase]
	}
	bufp := s.bufs.Get().(*[]byte)
	buf := s.readFp(id, (*bufp)[:0])
	fp := string(buf)
	*bufp = buf
	s.bufs.Put(bufp)
	return fp
}

// Close releases both spill-file descriptors (fingerprints and edges). The
// store must not be read afterwards (reads of rotated vertices or sealed
// edge blocks would panic on the closed files). Closing is optional — the
// descriptors are reclaimed by finalizers when the store is collected — but
// deterministic release matters to callers that churn through many
// spill-backed graphs: the store's whole point is a tiny heap footprint, so
// the GC may otherwise let descriptors pile up against the process's fd
// limit. Durable data files stay on disk; only the descriptors close.
func (s *spillStore) Close() error {
	return s.files.close()
}

// CloseGraphStore deterministically releases any external resources held by
// a graph's storage backend — today, the spill backend's two file
// descriptors. A no-op (nil) for the in-memory backends and for a nil
// graph, so error-path cleanup can be an unconditional defer. The graph
// must not be used afterwards.
func CloseGraphStore(g *Graph) error {
	if g == nil {
		return nil
	}
	if s, ok := g.store.(*spillStore); ok {
		return s.Close()
	}
	return nil
}

// SpillStats is the observability face of the spill backend.
type SpillStats struct {
	// States is the number of stored vertices.
	States int
	// Resident is how many of them are still in the pending RAM window.
	Resident int
	// SpillBytes is the total bytes appended to the fingerprint spill file,
	// including bytes still buffered ahead of the next rotation flush.
	SpillBytes int64
	// Reads counts fingerprint reads served from the spill file (candidate
	// verification, state decoding and fingerprint reconstruction).
	Reads int64
	// EdgeBytes is the total encoded size of the adjacency blocks appended
	// to the edge spill file, including blocks still pending ahead of the
	// next level seal.
	EdgeBytes int64
	// EdgeReads counts adjacency blocks read back from the edge spill file
	// (EdgesFrom calls served by pread rather than the pending buffer).
	EdgeReads int64
	// Collisions is the audited hash-collision count (see StoreCollisions).
	Collisions int64
}

// GraphSpillStats reports the spill-file statistics of a graph built with
// StoreSpill (ok == false for every other backend).
func GraphSpillStats(g *Graph) (SpillStats, bool) {
	s, ok := g.store.(*spillStore)
	if !ok {
		return SpillStats{}, false
	}
	return SpillStats{
		States:     len(s.offs),
		Resident:   len(s.pendingFps),
		SpillBytes: s.wOff,
		Reads:      s.reads.Load(),
		EdgeBytes:  s.edgeBytes(),
		EdgeReads:  s.edgeReads.Load(),
		Collisions: s.collisions.Load(),
	}, true
}
