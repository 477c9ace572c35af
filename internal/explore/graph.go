package explore

import (
	"context"
	"fmt"
	"iter"
	"log"
	"math"
	"runtime/debug"
	"sync"

	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/system"
)

// StateID is the dense index of a vertex of G(C): the i-th distinct state
// discovered (in BFS order) gets ID i. The level loop assigns IDs
// identically for any store backend, so IDs are stable coordinates of the
// graph, not artifacts of scheduling. The canonical
// string fingerprint remains available per vertex via Graph.Fingerprint, as
// the stable external format for reports and witness output.
type StateID uint32

// noState is never the ID of a vertex: stores hold fewer than 2^32 − 1.
const noState = StateID(math.MaxUint32)

// Valence classifies a finite failure-free input-first execution by the
// decisions reachable in its failure-free extensions (Section 3.2). The
// paper's Lemma 3 says every such execution of a correct system is bivalent
// or univalent; Unvalent (no decision reachable) certifies a broken
// candidate.
type Valence int

// Valence values.
const (
	Unvalent Valence = iota
	ZeroValent
	OneValent
	Bivalent
)

// String renders the valence.
func (v Valence) String() string {
	switch v {
	case Unvalent:
		return "unvalent"
	case ZeroValent:
		return "0-valent"
	case OneValent:
		return "1-valent"
	case Bivalent:
		return "bivalent"
	default:
		return fmt.Sprintf("valence(%d)", int(v))
	}
}

// decision mask bits.
const (
	maskZero uint8 = 1 << iota
	maskOne
)

func valenceOfMask(m uint8) Valence {
	switch m {
	case maskZero:
		return ZeroValent
	case maskOne:
		return OneValent
	case maskZero | maskOne:
		return Bivalent
	default:
		return Unvalent
	}
}

// Edge is one labelled transition of G(C): scheduling Task from the source
// vertex leads to the vertex To, performing Action.
type Edge struct {
	Task   ioa.Task
	Action ioa.Action
	To     StateID
}

// Graph is (a finite fragment of) the graph G(C) of Section 3.3: vertices
// are failure-free reachable states, identified by dense StateIDs assigned
// in discovery (BFS) order, and edges are applicable tasks. Because
// processes and services are deterministic, each vertex has at most one
// outgoing edge per task.
//
// The vertices — the dedup index and representative states — live in the
// one vertex store, the edges in the adjacency the build's StoreKind picked;
// the graph itself keeps the roots and the valence masks.
type Graph struct {
	sys   *system.System
	store *denseStore
	adj   AdjacencyStore
	roots []StateID
	edges int
	masks []uint8
	// manifest is set on durable graphs only: a build with GraphDir
	// records it at commit, OpenGraph at reattach. GraphSpillStats reads it.
	manifest *Manifest
	// tree is the BFS tree WitnessPath reads, derived from the edges on
	// first use.
	treeOnce sync.Once
	tree     *bfsTree
}

// Progress is one streaming exploration report, emitted after each BFS
// level completes: States and Edges are cumulative totals, Frontier is the
// number of newly discovered vertices awaiting expansion in the next level.
// The sequence is the same for every store backend.
type Progress struct {
	Level    int
	States   int
	Edges    int
	Frontier int
}

// ProgressFunc receives streaming Progress reports during graph
// construction. Calls are serialized (made from the coordinating
// goroutine); a callback that needs to stop the build should cancel the
// build's context rather than block.
type ProgressFunc func(Progress)

// Canonicalizer maps states to canonical orbit representatives under the
// system's declared process-renaming symmetry (see internal/symmetry). It
// must be a pure function, constant on orbits and safe for concurrent use.
type Canonicalizer interface {
	Canonical(st system.State) system.State
}

// BuildOptions bounds and instruments graph construction.
type BuildOptions struct {
	// MaxStates caps the number of distinct vertices (0 = default 200000).
	MaxStates int
	// Workers bounds the goroutines Refute's failure scenarios and
	// RefuteKSet's input assignments fan out to: 0 means one per CPU the
	// process may use (runtime.GOMAXPROCS(0)), 1 none beside the caller's.
	// A graph is always built on the calling goroutine, so it is the same
	// for every value.
	Workers int
	// Store selects where the edges are kept (default StoreDense, in RAM;
	// StoreSpill, in a file). Both produce the identical graph; they differ
	// in what stays resident.
	Store StoreKind
	// SpillDir is where StoreSpill creates its edge file ("" = the OS temp
	// directory). Ignored by the in-memory backend.
	SpillDir string
	// GraphDir, when non-empty, makes the build durable: the spill
	// backend's edge file is created as a named file under this directory,
	// and the vertices' fingerprints, an index and a versioned, checksummed
	// manifest are committed after the valence fixpoint, replacing any
	// graph the directory held. A committed directory reattaches via
	// OpenGraph without exploring a state. Requires Store == StoreSpill.
	GraphDir string
	// Symmetry, when non-nil, canonicalizes every state — roots and
	// discovered successors — before the key/intern step at the vertex
	// store, so the level loop builds the quotient graph modulo process
	// renaming. Both backends get the same quotient graph.
	Symmetry Canonicalizer
	// Progress, when non-nil, receives one report per completed BFS level.
	Progress ProgressFunc
	// Ctx, when non-nil, cancels the build: exploration checks it
	// mid-level and returns ctx.Err() promptly.
	Ctx context.Context
}

const defaultMaxStates = 200_000

// budget resolves MaxStates: anything below 1 means defaultMaxStates.
func (opt BuildOptions) budget() int {
	if opt.MaxStates <= 0 {
		return defaultMaxStates
	}
	return opt.MaxStates
}

// ctxErr returns the context's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// newGraph creates the empty graph of a build: the vertex store and the
// adjacency opt's StoreKind selects.
func newGraph(sys *system.System, opt BuildOptions) (*Graph, error) {
	g := &Graph{sys: sys, store: newDenseStore(sys)}
	if opt.Store != StoreSpill {
		g.adj = &packedAdjacency{sys: sys, segCap: edgeSegment}
		return g, nil
	}
	adj, err := newSpillEdges(g.store, opt.SpillDir, opt.GraphDir)
	if err != nil {
		return nil, err
	}
	g.adj = adj
	return g, nil
}

// validateDurable rejects the build-option combination the durable mode
// cannot honor: the manifest describes the spill backend's edge file, so
// GraphDir requires StoreSpill.
func validateDurable(opt BuildOptions) error {
	if opt.GraphDir != "" && opt.Store != StoreSpill {
		return fmt.Errorf("explore: GraphDir requires the spill store (got %v)", opt.Store)
	}
	return nil
}

// canonical resolves the optional symmetry reduction: the identity when no
// Canonicalizer is configured.
func canonical(canon Canonicalizer, st system.State) system.State {
	if canon == nil {
		return st
	}
	return canon.Canonical(st)
}

// internRoots seeds the graph with the root states (canonicalized when
// symmetry reduction is on). Roots are exempt from the vertex budget and
// always get the smallest IDs, in input order.
func (g *Graph) internRoots(roots []system.State, canon Canonicalizer) {
	var buf []byte
	for _, r := range roots {
		r = canonical(canon, r)
		buf = g.store.AppendKey(buf[:0], r)
		id, _ := g.store.Intern(buf, r)
		g.roots = append(g.roots, id)
	}
}

// discover resolves the first reference to a successor the store did not hold
// when it was looked up: a new vertex is interned. This is where the vertex
// budget is enforced: at the budget no new vertex is interned.
func (g *Graph) discover(key []byte, st system.State, maxStates int) (StateID, error) {
	if g.store.Len() >= maxStates {
		return noState, &LimitError{Limit: maxStates, Explored: g.store.Len()}
	}
	id, _ := g.store.Intern(key, st)
	return id, nil
}

// BuildGraph explores the failure-free closure of the given root states
// under all applicable tasks and computes the valence of every vertex by
// backward fixpoint over reachable decisions. It owns everything around the
// exploration — store creation, root interning, the error-path release, the
// final cancellation check, the valence fixpoint and the durable commit —
// around the level loop, Graph.explore.
func BuildGraph(sys *system.System, roots []system.State, opt BuildOptions) (g *Graph, err error) {
	// Edge-file write failures (disk full) surface here as ordinary build
	// errors; see recoverSpillWrite.
	defer recoverSpillWrite(&g, &err)
	if err := validateDurable(opt); err != nil {
		return nil, err
	}
	g, err = newGraph(sys, opt)
	if err != nil {
		return nil, err
	}
	// On every exit but the successful one — an error return (budget
	// overflow, cancellation, Apply failure) or a panic passing through —
	// the partial graph is dropped; release its backend resources — the
	// spill backend's descriptor — instead of waiting for a finalizer.
	// `built` pins the graph because the named return is nil on error.
	built, ok := g, false
	defer func() {
		if !ok {
			_ = CloseGraphStore(built)
		}
	}()
	g.internRoots(roots, opt.Symmetry)
	if err := g.explore(opt.budget(), opt); err != nil {
		return nil, err
	}
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}
	g.computeMasks()
	if err := commitDurable(g, opt); err != nil {
		return nil, err
	}
	ok = true
	return g, nil
}

// PanicError reports a panic while the level loop applied a task — a Program
// handler's or a service type's — as the build's error. The stack is logged.
type PanicError struct {
	Task  ioa.Task
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("explore: panic applying %v: %v", e.Task, e.Value)
}

// recoverApply, deferred around a level's expansion with the index of the
// task being applied, turns a panic into *err. Nothing but the task can
// panic there: the expansion reads only the vertex store, which is in RAM,
// and writes no file.
func recoverApply(sys *system.System, t *int, err *error) {
	r := recover()
	if r == nil {
		return
	}
	*err = &PanicError{Task: sys.Tasks()[*t], Value: r}
	log.Printf("%v\n%s", *err, debug.Stack())
}

// successor is the level loop's per-successor step: it runs task t
// from the vertex st against the store as it stands, ok = false if the task is
// not applicable. pkey is the store key of st, unused under a Canonicalizer;
// the successor's key is left in *buf. The returned edge's target is the
// successor's ID, or noState when the store does not hold it. No State is
// built here except for the Canonicalizer, which needs one before the
// key/lookup step and whose result is next; without one the successor is
// st.With(d), left to the caller to build if it has to keep the state.
func (g *Graph) successor(canon Canonicalizer, st system.State, pkey []byte, t int, buf *[]byte) (e packedEdge, d system.Delta, next system.State, ok bool, err error) {
	d, e.Label, ok, err = g.sys.Step(st, t)
	if err != nil {
		return e, d, next, false, fmt.Errorf("explore: apply %v: %w", g.sys.Tasks()[t], err)
	}
	if !ok {
		return e, d, next, false, nil
	}
	if canon != nil {
		next = canon.Canonical(st.With(d))
		*buf = g.store.AppendKey((*buf)[:0], next)
	} else {
		*buf = g.store.AppendSuccKey((*buf)[:0], pkey, d)
	}
	if e.to, ok = g.store.Lookup(*buf); !ok {
		e.to = noState
	}
	return e, d, next, true, nil
}

// levelScratch is the level loop's reusable memory: the key buffers, the
// expanding vertex's candidate tasks, the task being applied (for
// recoverApply) and the vertex's edges, which SetSuccs copies, so the loop
// allocates no per-vertex slice.
type levelScratch struct {
	buf, pkey []byte // a successor's key, the expanding vertex's
	tasks     []int
	task      int
	edges     []packedEdge
}

// explore is the level loop behind BuildGraph: it expands the interned roots
// to closure, one BFS level at a time, on the calling goroutine. IDs are
// dense in discovery order, so the queue is implicit: a level is the ID range
// [lo, hi) the store grew by while the level before it was expanded. The
// loop owns what a level means: its edges are sealed and one Progress report
// is made per level, including the last.
func (g *Graph) explore(maxStates int, opt BuildOptions) error {
	var ws levelScratch
	level := 0
	for lo, hi := StateID(0), StateID(g.store.Len()); lo < hi; lo, hi = hi, StateID(g.store.Len()) {
		if err := g.expandLevel(lo, hi, maxStates, &ws, opt); err != nil {
			return err
		}
		// The level's edges are now immutable, so the spill backend may move
		// them out of RAM before the next level is expanded.
		g.adj.SealLevel()
		if opt.Progress != nil {
			opt.Progress(Progress{Level: level, States: g.store.Len(), Edges: g.edges, Frontier: g.store.Len() - int(hi)})
		}
		level++
	}
	return nil
}

// expandLevel expands the level [lo, hi), interning each discovery the
// moment it is found, so a state gets its ID at the first reference to it in
// ID order × task order. The context is read every 64 vertices.
func (g *Graph) expandLevel(lo, hi StateID, maxStates int, ws *levelScratch, opt BuildOptions) (err error) {
	defer recoverApply(g.sys, &ws.task, &err)
	for id := lo; id < hi; id++ {
		if id&63 == 0 {
			if err := ctxErr(opt.Ctx); err != nil {
				return err
			}
		}
		st, _ := g.store.State(id)
		if opt.Symmetry == nil {
			ws.pkey = g.store.AppendKey(ws.pkey[:0], st)
		}
		ws.edges = ws.edges[:0]
		ws.tasks = g.sys.AppendCandidates(ws.tasks[:0], st)
		for _, ws.task = range ws.tasks {
			e, d, succ, ok, err := g.successor(opt.Symmetry, st, ws.pkey, ws.task, &ws.buf)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if e.to == noState {
				if opt.Symmetry == nil {
					succ = st.With(d)
				}
				e.to, err = g.discover(ws.buf, succ, maxStates)
				if err != nil {
					return err
				}
			}
			ws.edges = append(ws.edges, e)
		}
		g.adj.SetSuccs(id, ws.edges)
		g.edges += len(ws.edges)
	}
	return nil
}

// computeMasks is the valence fixpoint: it propagates decision bits backwards
// until nothing moves, mask(s) = decided(s) ∪ ⋃_{s→t} mask(t).
func (g *Graph) computeMasks() {
	// Seed with each state's own decisions.
	n := g.store.Len()
	g.masks = make([]uint8, n)
	for id := range g.masks {
		st, _ := g.store.State(StateID(id))
		g.masks[id] = ownMask(g.sys, st)
	}
	// Chaotic iteration to fixpoint; the least fixpoint is unique, so the
	// sweep order only affects how many rounds it takes. Masks flow
	// backwards along edges and BFS edges point mostly at equal-or-larger
	// IDs, so a descending-ID sweep propagates most of a chain in one pass
	// and typically converges in two or three rounds instead of one per
	// BFS level — which matters on the spill backend, where every round
	// streams the whole edge file back in.
	var targets []StateID
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			m := g.masks[i]
			targets = g.adj.Targets(StateID(i), targets[:0])
			for _, to := range targets {
				m |= g.masks[to]
			}
			if m != g.masks[i] {
				g.masks[i] = m
				changed = true
			}
		}
	}
}

// rootSets records, per vertex, which of the graph's roots reach it.
type rootSets struct {
	bits  []uint64
	words int // uint64s per vertex
}

func (r rootSets) of(id StateID) []uint64 { return r.bits[int(id)*r.words:][:r.words] }

// has reports whether the i-th root reaches the vertex.
func (r rootSets) has(id StateID, i int) bool { return r.of(id)[i/64]>>(i%64)&1 != 0 }

// rootSets propagates one bit per root forwards to a fixpoint — the mirror
// image of computeMasks: set(t) = roots(t) ∪ ⋃_{s→t} set(s). BFS edges point
// mostly at equal-or-larger IDs, so an ascending sweep settles nearly
// everything in its first round.
func (g *Graph) rootSets(ctx context.Context) (rootSets, error) {
	n := g.store.Len()
	r := rootSets{words: (len(g.roots) + 63) / 64}
	r.bits = make([]uint64, n*r.words)
	for i, root := range g.roots {
		r.of(root)[i/64] |= 1 << (i % 64)
	}
	var targets []StateID
	for changed := true; changed; {
		if err := ctxErr(ctx); err != nil {
			return rootSets{}, err
		}
		changed = false
		for id := range StateID(n) {
			src := r.of(id)
			targets = g.adj.Targets(id, targets[:0])
			for _, to := range targets {
				dst := r.of(to)
				for w := range src {
					if dst[w]|src[w] != dst[w] {
						dst[w] |= src[w]
						changed = true
					}
				}
			}
		}
	}
	return r, nil
}

func ownMask(sys *system.System, st system.State) uint8 {
	var m uint8
	for slot := range sys.ProcessIDs() {
		ps := st.Proc(slot)
		if !ps.HasDec {
			continue
		}
		switch ps.Decided {
		case "0":
			m |= maskZero
		case "1":
			m |= maskOne
		}
	}
	return m
}

// Size returns the number of vertices. Valid StateIDs are 0 … Size()−1.
func (g *Graph) Size() int { return g.store.Len() }

// Edges returns the total number of edges of the explored graph.
func (g *Graph) Edges() int { return g.edges }

// Roots returns the root vertices in insertion order.
func (g *Graph) Roots() []StateID { return g.roots }

// State returns the representative state of a vertex.
func (g *Graph) State(id StateID) (system.State, bool) {
	return g.store.State(id)
}

// Fingerprint returns the canonical string encoding of a vertex — the
// stable external format for reports and witness output.
func (g *Graph) Fingerprint(id StateID) string { return g.store.Fingerprint(id) }

// Lookup resolves a canonical fingerprint to its vertex, if the state was
// discovered; any other string is a miss. The dense store decodes fp to
// find it, so a walk that already holds states should not go through here.
func (g *Graph) Lookup(fp string) (StateID, bool) { return g.store.LookupFingerprint(fp) }

// EdgesFrom streams the outgoing edges of a vertex in recorded order —
// the allocation-free access path: the dense backend resolves its 8-byte
// edges' labels through the System, the spill backend decodes one block.
// Breaking out early is allowed and cheap.
func (g *Graph) EdgesFrom(id StateID) iter.Seq[Edge] { return g.adj.EdgesFrom(id) }

// Succs returns the outgoing edges of a vertex as a slice (nil for a sink
// or an out-of-range ID). No backend stores []Edge, so every call
// materializes a fresh slice; bulk walks should prefer EdgesFrom.
func (g *Graph) Succs(id StateID) []Edge {
	var edges []Edge
	for e := range g.adj.EdgesFrom(id) {
		edges = append(edges, e)
	}
	return edges
}

// Succ returns the e-successor of a vertex, if task e is applicable there.
func (g *Graph) Succ(id StateID, task ioa.Task) (Edge, bool) {
	for e := range g.adj.EdgesFrom(id) {
		if e.Task == task {
			return e, true
		}
	}
	return Edge{}, false
}

// Valence returns the valence of a vertex.
func (g *Graph) Valence(id StateID) Valence {
	// uint comparison so IDs past the 32-bit int range stay out-of-range
	// instead of wrapping negative on 32-bit platforms.
	if uint(id) >= uint(len(g.masks)) {
		return Unvalent
	}
	return valenceOfMask(g.masks[id])
}

// WitnessPath returns the BFS-tree path of edges from a root to the given
// vertex: the edges by which the level loop first reached each vertex on
// the way (nil for a root or an out-of-range ID). The tree is not stored.
// The level loop interns a vertex at its first reference in (source ID,
// edge order), so one ascending sweep over the edges, with the roots marked
// first, gives it back; the sweep runs once per graph, on first use.
func (g *Graph) WitnessPath(id StateID) []Edge {
	if uint(id) >= uint(g.store.Len()) {
		return nil
	}
	g.treeOnce.Do(func() {
		g.tree = newBFSTree(g.store.Len())
		g.tree.begin(g.roots...)
		var targets []StateID
		for from := range StateID(g.store.Len()) {
			targets = g.adj.Targets(from, targets[:0])
			for i, to := range targets {
				if !g.tree.seen(to) {
					g.tree.visit(from, i, to)
				}
			}
		}
	})
	return g.tree.path(g, id)
}

// bfsTree records, per visited vertex, the edge it was first reached by in a
// filtered BFS: parent[v] is the predecessor and pedge[v] the index of the
// edge in succs(parent[v]); a start vertex is its own parent. Storing one
// link per vertex and reconstructing the path once at the end replaces the
// old per-enqueue prefix copying, which was quadratic in path depth.
//
// Visited marks are epoch stamps, so one tree can be reused across many
// searches (the Fig. 3 construction runs one BFS per step): begin() bumps
// the epoch instead of re-zeroing the full-graph-size arrays.
type bfsTree struct {
	epoch  uint32
	mark   []uint32
	parent []StateID
	pedge  []int32
}

func newBFSTree(n int) *bfsTree {
	return &bfsTree{
		mark:   make([]uint32, n),
		parent: make([]StateID, n),
		pedge:  make([]int32, n),
	}
}

// begin starts a fresh search rooted at the starts: all vertices read as
// unvisited except them.
func (t *bfsTree) begin(starts ...StateID) {
	if t.epoch == ^uint32(0) {
		// Epoch wrapped: clear the stale stamps once.
		clear(t.mark)
		t.epoch = 0
	}
	t.epoch++
	for _, s := range starts {
		t.mark[s] = t.epoch
		t.parent[s] = s
	}
}

func (t *bfsTree) seen(v StateID) bool { return t.mark[v] == t.epoch }

func (t *bfsTree) visit(from StateID, edgeIdx int, to StateID) {
	t.mark[to] = t.epoch
	t.parent[to] = from
	t.pedge[to] = int32(edgeIdx)
}

// path reconstructs the edges from the search's start to v, in order. Every
// vertex on the way was visited in the current search, so only the start is
// its own parent.
func (t *bfsTree) path(g *Graph, v StateID) []Edge {
	var rev []Edge
	for v != t.parent[v] {
		from := t.parent[v]
		rev = append(rev, edgeAt(g.adj, from, t.pedge[v]))
		v = from
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// edgeAt returns the idx-th outgoing edge of a vertex. The bfsTree
// addresses its parent edges by index; with adjacency behind an iterator,
// resolving one means counting back into the block. Panics out of range,
// mirroring the slice indexing it replaces.
func edgeAt(adj AdjacencyStore, id StateID, idx int32) Edge {
	i := int32(0)
	for e := range adj.EdgesFrom(id) {
		if i == idx {
			return e
		}
		i++
	}
	panic(fmt.Sprintf("explore: edge index %d out of range for state %d", idx, id))
}

// FindState returns the first vertex (in BFS order from the given start)
// satisfying the predicate, searching only edges allowed by the filter
// (nil filter = all edges). The returned path is the sequence of edges from
// start to the found vertex.
func (g *Graph) FindState(start StateID, allow func(Edge) bool, want func(system.State) bool) (StateID, []Edge, bool) {
	id, path, ok, _ := g.search(nil, newBFSTree(g.store.Len()), start, allow, func(id StateID) bool {
		st, ok := g.State(id)
		return ok && want(st)
	})
	return id, path, ok
}

// search is the graph's one breadth-first search: from start, along the
// edges allow admits (nil admits all), it returns the first vertex want
// accepts in BFS order and the path to it, recorded in tree. The context is
// polled every 64 dequeues, mirroring the build loop; a nil context never
// cancels.
func (g *Graph) search(ctx context.Context, tree *bfsTree, start StateID, allow func(Edge) bool, want func(StateID) bool) (StateID, []Edge, bool, error) {
	tree.begin(start)
	queue := []StateID{start}
	for head := 0; head < len(queue); head++ {
		if head&63 == 0 {
			if err := ctxErr(ctx); err != nil {
				return 0, nil, false, err
			}
		}
		id := queue[head]
		if want(id) {
			return id, tree.path(g, id), true, nil
		}
		i := -1
		for e := range g.adj.EdgesFrom(id) {
			i++
			if (allow != nil && !allow(e)) || tree.seen(e.To) {
				continue
			}
			tree.visit(id, i, e.To)
			queue = append(queue, e.To)
		}
	}
	return 0, nil, false, nil
}
