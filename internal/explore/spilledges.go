package explore

import (
	"encoding/binary"
	"fmt"
	"iter"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/system"
)

// spillEdges is the spill backend's adjacency: an append-only edge file of
// per-vertex successor blocks, delta-varint encoded against two small in-RAM
// dictionaries (the distinct tasks and actions of the system — a handful
// each, independent of graph size). Per vertex, RAM keeps only the block's
// offset and length (12 bytes), so the edge relation — which outnumbers
// vertices 7:1 already at forward n=5 — stops dominating resident memory.
// The vertices stay in the graph's vertex store, as on every backend.
//
// Block format (one block per vertex, appended in ID order):
//
//	uvarint edgeCount
//	edgeCount × { uvarint taskIdx, uvarint actionIdx, varint ΔTo }
//
// ΔTo is zigzag-encoded To − prev with prev seeded to the source vertex's
// own ID and updated to each decoded To: BFS edges point at nearby IDs
// (the current or next level), so deltas are small and most edges encode
// in 3–5 bytes.
//
// Write protocol (seal-at-barrier): SetSuccs — called exactly once per
// vertex in strictly increasing ID order by both level bodies — appends the
// encoded block to the pending buffer. SealLevel, called at every level
// barrier while the engine holds the graph exclusively, writes the pending
// buffer out at flushedOff and empties it, so a level's blocks leave RAM
// as soon as the level completes. EdgesFrom serves sealed blocks by pread
// (safe for concurrent readers) and still-pending blocks straight from the
// buffer.
//
// The edge file is ephemeral by default: created in the spill directory and
// unlinked immediately, so the kernel reclaims it when the descriptor closes
// — at the latest when the graph is garbage collected (the os package
// attaches a close finalizer) — and nothing leaks even on a crash. In
// durable mode (BuildOptions.GraphDir) it is edges.dat under the named
// directory and kept; commitDurable adds the fingerprints, the index and the
// manifest after the build, and OpenGraph reattaches it read-only.
type spillEdges struct {
	vertices *denseStore // its System resolves labels; its Len is a seal's vertex count

	efile      *os.File
	eoffs      []int64  // edge-file offset of each vertex's block
	elens      []uint32 // block length in bytes
	pending    []byte   // encoded blocks since the last seal
	flushedOff int64    // bytes durably written to the edge file
	// seals records every level barrier — cumulative vertex count and
	// edge-file offset at each SealLevel. One small entry per BFS level;
	// persisted by the durable mode so a reopened graph keeps its level
	// structure.
	seals []sealMark

	// Dictionaries: tasks and actions are comparable structs drawn from a
	// small fixed set, so blocks store dense indices instead of strings.
	// They are persisted, so unlike the System's labels their order is
	// observable: first sight in SetSuccs order. remap[t] caches, for System
	// task t, the task's dictionary index at [0] and action number a's at
	// [a+1], each plus one (0 = not resolved yet): a label is looked up by
	// value, and enters the dictionaries, only the first time it is met.
	tasks []ioa.Task
	acts  []ioa.Action
	remap [][]uint32

	edgeReads atomic.Int64 // blocks served by pread
	decoded   int64        // fingerprints OpenGraph decoded into the vertex store
	ebufs     sync.Pool
}

// newSpillEdges creates the edge file of a build whose vertices live in
// vertices: unlinked in spillDir ("" = the OS temp directory), or edges.dat
// under graphDir for a durable build.
func newSpillEdges(vertices *denseStore, spillDir, graphDir string) (*spillEdges, error) {
	var f *os.File
	var err error
	if graphDir != "" {
		f, err = newDurableEdgeFile(graphDir)
	} else {
		f, err = newEphemeralEdgeFile(spillDir)
	}
	if err != nil {
		return nil, err
	}
	a := &spillEdges{vertices: vertices, efile: f, remap: make([][]uint32, len(vertices.sys.Tasks()))}
	a.ebufs.New = func() any { b := make([]byte, 0, 256); return &b }
	return a, nil
}

// edgeBytes is the total encoded adjacency size, sealed plus pending.
func (a *spillEdges) edgeBytes() int64 { return a.flushedOff + int64(len(a.pending)) }

// SetSuccs encodes a vertex's successor block into the pending buffer.
// The adjacency contract requires strictly increasing, gap-free IDs; both
// level bodies guarantee it, and the append-only offset index depends on it, so
// violations panic like slice-bounds misuse.
func (a *spillEdges) SetSuccs(id StateID, edges []packedEdge) {
	if int(id) != len(a.eoffs) {
		panic(fmt.Sprintf("explore: spill store: SetSuccs(%d) out of order (next unrecorded vertex is %d)", id, len(a.eoffs)))
	}
	a.eoffs = append(a.eoffs, a.flushedOff+int64(len(a.pending)))
	start := len(a.pending)
	a.pending = binary.AppendUvarint(a.pending, uint64(len(edges)))
	prev := int64(id)
	for _, e := range edges {
		ti, ai := a.dictLabel(e.Label)
		a.pending = binary.AppendUvarint(a.pending, uint64(ti))
		a.pending = binary.AppendUvarint(a.pending, uint64(ai))
		a.pending = binary.AppendVarint(a.pending, int64(e.to)-prev)
		prev = int64(e.to)
	}
	a.elens = append(a.elens, uint32(len(a.pending)-start))
}

// dictLabel resolves a System label to its dictionary indices, entering the
// task and then the action into the dictionaries if they are new.
func (a *spillEdges) dictLabel(l system.Label) (ti, ai uint32) {
	row := a.remap[l.Task]
	if int(l.Act)+1 >= len(row) || row[l.Act+1] == 0 {
		task, act := a.vertices.sys.Resolve(l)
		row = append(row, make([]uint32, max(0, int(l.Act)+2-len(row)))...)
		row[0], row[l.Act+1] = dictIndex(&a.tasks, task)+1, dictIndex(&a.acts, act)+1
		a.remap[l.Task] = row
	}
	return row[0] - 1, row[l.Act+1] - 1
}

// dictIndex returns v's index in a dictionary, appending it if it is new. It
// runs once per distinct label, so the scan replaces a map.
func dictIndex[T comparable](dict *[]T, v T) uint32 {
	i := slices.Index(*dict, v)
	if i < 0 {
		i = len(*dict)
		*dict = append(*dict, v)
	}
	return uint32(i)
}

// sealMark is one recorded level barrier: how many vertices existed and
// how far the edge file reached when the level sealed.
type sealMark struct {
	states  int
	edgeOff int64
}

// SealLevel writes the pending blocks to the edge file, empties the
// buffer and records the barrier. Called at level barriers while the
// engine holds the graph exclusively, so no EdgesFrom reader observes
// the hand-off. A failing write panics with a spillWriteError, which
// BuildGraph returns as its error.
func (a *spillEdges) SealLevel() {
	if len(a.pending) > 0 {
		if _, err := a.efile.WriteAt(a.pending, a.flushedOff); err != nil {
			panic(spillWriteError{fmt.Errorf("explore: spill store: seal edge blocks: %w", err)})
		}
		a.flushedOff += int64(len(a.pending))
		a.pending = a.pending[:0]
	}
	a.seals = append(a.seals, sealMark{states: a.vertices.Len(), edgeOff: a.flushedOff})
}

// block returns the encoded successor block of a recorded vertex: a window
// of the pending buffer or — for sealed blocks — a pooled pread, in which
// case pooled is non-nil and goes back to ebufs when the caller is done with
// the bytes. A failing read of bytes the store itself wrote is unrecoverable
// corruption and panics.
func (a *spillEdges) block(id StateID) (block []byte, pooled *[]byte) {
	n := int(a.elens[id])
	off := a.eoffs[id]
	if off >= a.flushedOff {
		return a.pending[off-a.flushedOff : off-a.flushedOff+int64(n)], nil
	}
	pooled = a.ebufs.Get().(*[]byte)
	buf := *pooled
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := a.efile.ReadAt(buf, off); err != nil {
		panic(fmt.Sprintf("explore: spill store: read edge block of state %d: %v", id, err))
	}
	a.edgeReads.Add(1)
	*pooled = buf
	return buf, pooled
}

// EdgesFrom streams a vertex's successor block, decoded from the pending
// buffer or — for sealed blocks — from a pooled pread. Total: an
// out-of-range or not-yet-recorded ID yields an empty sequence. An
// undecodable block, like a failing read, is corruption and panics.
func (a *spillEdges) EdgesFrom(id StateID) iter.Seq[Edge] {
	return func(yield func(Edge) bool) {
		if uint(id) >= uint(len(a.eoffs)) {
			return
		}
		block, pooled := a.block(id)
		if pooled != nil {
			defer a.ebufs.Put(pooled)
		}
		count, k := binary.Uvarint(block)
		if k <= 0 {
			//lint:boostvet-ignore storebounds — undecodable self-written block is corruption, not a bounds miss
			panic(fmt.Sprintf("explore: spill store: corrupt edge block of state %d", id))
		}
		block = block[k:]
		prev := int64(id)
		for ; count > 0; count-- {
			ti, k1 := binary.Uvarint(block)
			ai, k2 := binary.Uvarint(block[k1:])
			d, k3 := binary.Varint(block[k1+k2:])
			if k1 <= 0 || k2 <= 0 || k3 <= 0 {
				//lint:boostvet-ignore storebounds — undecodable self-written block is corruption, not a bounds miss
				panic(fmt.Sprintf("explore: spill store: corrupt edge block of state %d", id))
			}
			block = block[k1+k2+k3:]
			to := prev + d
			prev = to
			if !yield(Edge{Task: a.tasks[ti], Action: a.acts[ai], To: StateID(to)}) {
				return
			}
		}
	}
}

// Targets decodes only the ΔTo chain of a vertex's block: the two label
// varints of each edge are stepped over, never resolved against the
// dictionaries. Total and corruption-panicking like EdgesFrom.
func (a *spillEdges) Targets(id StateID, buf []StateID) []StateID {
	if uint(id) >= uint(len(a.eoffs)) {
		return buf
	}
	block, pooled := a.block(id)
	if pooled != nil {
		defer a.ebufs.Put(pooled)
	}
	count, k := binary.Uvarint(block)
	if k <= 0 {
		//lint:boostvet-ignore storebounds — undecodable self-written block is corruption, not a bounds miss
		panic(fmt.Sprintf("explore: spill store: corrupt edge block of state %d", id))
	}
	block = block[k:]
	prev := int64(id)
	for ; count > 0; count-- {
		_, k1 := binary.Uvarint(block) // task and action index: stepped over
		_, k2 := binary.Uvarint(block[k1:])
		d, k3 := binary.Varint(block[k1+k2:])
		if k1 <= 0 || k2 <= 0 || k3 <= 0 {
			//lint:boostvet-ignore storebounds — undecodable self-written block is corruption, not a bounds miss
			panic(fmt.Sprintf("explore: spill store: corrupt edge block of state %d", id))
		}
		block = block[k1+k2+k3:]
		prev += d
		buf = append(buf, StateID(prev))
	}
	return buf
}

// spillWriteError carries an environmental edge-file write failure (disk
// full, quota) out of SealLevel, whose AdjacencyStore signature has no error
// return. BuildGraph recovers it at the engine boundary and returns it as an
// ordinary build error — unlike read failures, which really are
// unrecoverable corruption (the store rereads only bytes it wrote to a file
// nothing else touches) and stay panics.
type spillWriteError struct{ err error }

// recoverSpillWrite converts a spillWriteError panic into the build's error
// return, dropping the partial graph, whose descriptor BuildGraph's own
// deferred release has closed by then; every other panic value is re-raised.
func recoverSpillWrite(g **Graph, err *error) {
	switch r := recover().(type) {
	case nil:
	case spillWriteError:
		*g, *err = nil, r.err
	default:
		panic(r)
	}
}

// CloseGraphStore deterministically releases any external resources held by
// a graph's storage backend — today, the spill backend's edge-file
// descriptor. A no-op (nil) for the in-memory backend and for a nil graph,
// so error-path cleanup can be an unconditional defer. The graph must not be
// used afterwards: reads of sealed edge blocks would panic on the closed
// file. Closing is optional — the descriptor is reclaimed by a finalizer when
// the graph is collected — but callers that churn through many spill-backed
// graphs should close each one rather than let descriptors pile up against
// the process's fd limit. Durable data files stay on disk; only the
// descriptor closes.
func CloseGraphStore(g *Graph) error {
	if g == nil {
		return nil
	}
	if a, ok := g.adj.(*spillEdges); ok {
		return a.efile.Close()
	}
	return nil
}

// SpillStats is the observability face of the spill backend.
type SpillStats struct {
	// States is the number of stored vertices.
	States int
	// SpillBytes is the size of the durable graph's fingerprints.dat — the
	// canonical fingerprints the commit wrote in ID order — and 0 for an
	// ephemeral build, which writes none.
	SpillBytes int64
	// Reads counts the fingerprints OpenGraph decoded back into the vertex
	// store; 0 on a graph built in this process.
	Reads int64
	// EdgeBytes is the total encoded size of the adjacency blocks appended
	// to the edge file, including blocks still pending ahead of the next
	// level seal.
	EdgeBytes int64
	// EdgeReads counts adjacency blocks read back from the edge file
	// (EdgesFrom and Targets calls served by pread rather than the pending
	// buffer).
	EdgeReads int64
}

// GraphSpillStats reports the spill-file statistics of a graph built with
// StoreSpill (ok == false for every other backend).
func GraphSpillStats(g *Graph) (SpillStats, bool) {
	a, ok := g.adj.(*spillEdges)
	if !ok {
		return SpillStats{}, false
	}
	st := SpillStats{
		States:    g.store.Len(),
		Reads:     a.decoded,
		EdgeBytes: a.edgeBytes(),
		EdgeReads: a.edgeReads.Load(),
	}
	if g.manifest != nil {
		st.SpillBytes = g.manifest.FingerprintBytes
	}
	return st, true
}
