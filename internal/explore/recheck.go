package explore

import (
	"fmt"
	"iter"
	"slices"

	"github.com/ioa-lab/boosting/internal/system"
)

// RecheckResult is the outcome of a delta-revalidation pass (Recheck):
// the patched graph of the modified candidate, root valences in the
// ClassifyInits sense, and the dirty-region accounting that makes the
// incremental cost visible.
type RecheckResult struct {
	// Graph is the modified candidate's graph, layered over the base: base
	// vertices keep their StateIDs, vertices whose successor set changed
	// carry patched adjacency, and freshly discovered states are spliced
	// in after the base ID space. Base vertices unreachable under the new
	// candidate remain addressable (their valences are sound but vacuous);
	// Graph.Edges counts all recorded edges including theirs, while
	// ReachableEdges counts the live graph. Witness predecessor links are
	// not maintained across the splice: WitnessPath returns nil, as on
	// NoWitnesses builds.
	Graph *Graph
	// Roots are the recheck roots' vertices, in input order.
	Roots []StateID
	// Valences are the roots' valences under the modified candidate.
	Valences []Valence
	// BivalentIndex is the first bivalent root index, or -1.
	BivalentIndex int
	// BaseStates is the number of vertices inherited from the base graph.
	BaseStates int
	// Dirty is how many base vertices changed their successor set under
	// the modified candidate.
	Dirty int
	// Fresh is how many states the recheck actually explored — vertices
	// interned beyond the base ID space. This is the incremental work; a
	// from-scratch build would have explored ReachableStates.
	Fresh int
	// ReachableStates and ReachableEdges count the graph reachable from
	// the recheck roots — what a from-scratch build of the modified
	// candidate would report as Size and Edges.
	ReachableStates int
	ReachableEdges  int
}

// Close releases the underlying base graph's store (the reopened spill
// descriptors). Nil-tolerant, like InitClassification.Close.
func (r *RecheckResult) Close() error {
	if r == nil {
		return nil
	}
	return CloseGraphStore(r.Graph)
}

// recheckStore layers a mutable delta over a frozen base store: patched
// successor sets for dirty base vertices, and a dense in-memory fresh
// region spliced after the base ID space. It is the StateStore the
// recheck graph serves reads from; Intern only ever lands in the fresh
// region (the base is complete and read-only).
type recheckStore struct {
	base  StateStore
	baseN int

	// Fresh region, indexed by id − baseN.
	fps        []string
	states     []system.State
	freshSuccs [][]Edge
	index      map[string]StateID

	// patched maps dirty base vertices to their new successor sets.
	patched map[StateID][]Edge
}

func newRecheckStore(base StateStore) *recheckStore {
	return &recheckStore{
		base:    base,
		baseN:   base.Len(),
		index:   make(map[string]StateID),
		patched: make(map[StateID][]Edge),
	}
}

func (s *recheckStore) Len() int { return s.baseN + len(s.fps) }

func (s *recheckStore) Lookup(fp []byte) (StateID, bool) {
	if id, ok := s.base.Lookup(fp); ok {
		return id, true
	}
	id, ok := s.index[string(fp)]
	return id, ok
}

func (s *recheckStore) Intern(fp string, st system.State, _ pred) (StateID, bool) {
	if id, ok := s.Lookup(stringBytes(fp)); ok {
		return id, false
	}
	id := StateID(s.Len())
	s.index[fp] = id
	s.fps = append(s.fps, fp)
	s.states = append(s.states, st)
	return id, true
}

func (s *recheckStore) State(id StateID) (system.State, bool) {
	if uint(id) < uint(s.baseN) {
		return s.base.State(id)
	}
	i := int(id) - s.baseN
	if i >= len(s.states) {
		return system.State{}, false
	}
	return s.states[i], true
}

func (s *recheckStore) Fingerprint(id StateID) string {
	if uint(id) < uint(s.baseN) {
		return s.base.Fingerprint(id)
	}
	i := int(id) - s.baseN
	if i >= len(s.fps) {
		return ""
	}
	return s.fps[i]
}

// Pred is always the zero link: the base's BFS tree predates the delta
// (its edges may no longer exist under the modified candidate), so the
// spliced graph behaves like a NoWitnesses build.
func (s *recheckStore) Pred(StateID) pred { return pred{} }

// SetSuccs records a fresh vertex's successors; dirty base vertices go
// through patch instead.
func (s *recheckStore) SetSuccs(id StateID, edges []Edge) {
	if int(id) != s.baseN+len(s.freshSuccs) {
		panic(fmt.Sprintf("explore: recheck store: SetSuccs(%d) out of order (next fresh vertex is %d)",
			id, s.baseN+len(s.freshSuccs)))
	}
	s.freshSuccs = append(s.freshSuccs, slices.Clone(edges))
}

// patch overrides a dirty base vertex's successor set.
func (s *recheckStore) patch(id StateID, edges []Edge) { s.patched[id] = edges }

func (s *recheckStore) EdgesFrom(id StateID) iter.Seq[Edge] {
	if edges, ok := s.patched[id]; ok {
		return sliceSeq(edges)
	}
	if uint(id) < uint(s.baseN) {
		return s.base.EdgesFrom(id)
	}
	i := int(id) - s.baseN
	if i >= len(s.freshSuccs) {
		return sliceSeq(nil)
	}
	return sliceSeq(s.freshSuccs[i])
}

func (s *recheckStore) Targets(id StateID, buf []StateID) []StateID {
	edges, ok := s.patched[id]
	if !ok {
		if uint(id) < uint(s.baseN) {
			return s.base.Targets(id, buf)
		}
		i := int(id) - s.baseN
		if i >= len(s.freshSuccs) {
			return buf
		}
		edges = s.freshSuccs[i]
	}
	for _, e := range edges {
		buf = append(buf, e.To)
	}
	return buf
}

func (s *recheckStore) SealLevel() {}

func sliceSeq(edges []Edge) iter.Seq[Edge] {
	return func(yield func(Edge) bool) {
		for _, e := range edges {
			if !yield(e) {
				return
			}
		}
	}
}

// Recheck revalidates a previously built graph against a modified
// candidate — the incremental counterpart of BuildGraph. prev is the base
// graph (typically reopened via OpenGraph; any store backend works) and
// sys the modified candidate, which must be shape-compatible with the
// system that built prev (equal ShapeFingerprint — same processes and
// service structure; programs, resilience and silence policy are the
// dimensions a delta may vary).
//
// The pass sweeps every base vertex, decodes its state via the strict
// ParseFingerprint inverse, and recomputes its enabled-action set under
// sys: vertices whose successor set changed are patched (the dirty
// region), successors the base never saw are interned into a fresh
// region spliced after the base ID space and explored BFS-style, and the
// descending-ID valence fixpoint is re-run seeded from the recomputed
// per-vertex decision masks. When the dirty region is empty, no state is
// fresh and the persisted fixpoint seeds are unchanged, the base's
// valences are reused verbatim and the fixpoint is skipped.
//
// Honors opt.MaxStates (over the combined ID space), opt.Symmetry (must
// match the base build — a reduced base recheckd without its
// canonicalizer, or vice versa, fails the per-vertex edge comparison
// wholesale) and opt.Ctx. Engine options (Workers, Store) are
// ignored: the pass is serial and the fresh region lives in memory.
//
// The result's graph shares prev's store; Close the result, not prev.
func Recheck(sys *system.System, prev *Graph, roots []system.State, opt BuildOptions) (*RecheckResult, error) {
	if prev == nil {
		return nil, fmt.Errorf("explore: recheck: nil base graph")
	}
	maxStates := opt.MaxStates
	if maxStates <= 0 {
		maxStates = defaultMaxStates
	}
	rs := newRecheckStore(prev.store)
	g := &Graph{sys: sys, store: rs}
	out := &RecheckResult{Graph: g, BivalentIndex: -1, BaseStates: rs.baseN}

	// Roots resolve against the base first; a root the base never explored
	// is itself fresh (exempt from the vertex budget, like BuildGraph).
	buf := make([]byte, 0, 256)
	for _, r := range roots {
		r = canonical(opt.Symmetry, r)
		buf = sys.AppendFingerprint(buf[:0], r)
		id, ok := rs.Lookup(buf)
		if !ok {
			id, _ = rs.Intern(string(buf), r, pred{})
		}
		g.roots = append(g.roots, id)
	}
	out.Roots = g.roots

	// Dirty-region sweep: recompute every base vertex's enabled-action set
	// under the modified candidate. The decode already pays for reading
	// the state, so the own-decision fixpoint seed is recomputed in the
	// same pass.
	ownMasks := make([]uint8, rs.baseN, rs.baseN+64)
	var edges []Edge
	for next := 0; next < rs.baseN; next++ {
		if next&63 == 0 {
			if err := ctxErr(opt.Ctx); err != nil {
				return nil, err
			}
		}
		st, ok := prev.store.State(StateID(next))
		if !ok {
			return nil, fmt.Errorf("explore: recheck: base state %d unreadable", next)
		}
		ownMasks[next] = ownMask(sys, st)
		edges = edges[:0]
		var err error
		edges, buf, err = expandRecheck(sys, rs, st, edges, buf, maxStates, opt.Symmetry)
		if err != nil {
			return nil, err
		}
		if !edgesEqual(prev.store.EdgesFrom(StateID(next)), edges) {
			out.Dirty++
			rs.patch(StateID(next), append([]Edge(nil), edges...))
		}
		g.edges += len(edges)
	}

	// Splice pass: BFS over the fresh region, exactly the serial engine's
	// implicit-queue loop but resolving against base ∪ fresh.
	for next := rs.baseN; next < rs.Len(); next++ {
		if next&63 == 0 {
			if err := ctxErr(opt.Ctx); err != nil {
				return nil, err
			}
		}
		st, _ := rs.State(StateID(next))
		ownMasks = append(ownMasks, ownMask(sys, st))
		var err error
		edges, buf, err = expandRecheck(sys, rs, st, edges[:0], buf, maxStates, opt.Symmetry)
		if err != nil {
			return nil, err
		}
		rs.SetSuccs(StateID(next), edges)
		g.edges += len(edges)
	}
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}
	out.Fresh = rs.Len() - rs.baseN

	// Valences. Fast path: nothing dirty, nothing fresh and the persisted
	// fixpoint seeds unchanged means the edge relation and seeds are the
	// base's, whose masks are already the least fixpoint — reuse them.
	// (prev.ownMasks is non-nil only on durable/reopened graphs; without
	// it the full fixpoint runs, which is sound either way.)
	if out.Dirty == 0 && out.Fresh == 0 && masksEqual(prev.ownMasks, ownMasks) {
		g.masks = prev.masks
	} else {
		g.ownMasks = ownMasks
		g.computeMasks()
	}

	for i, id := range g.roots {
		v := g.Valence(id)
		out.Valences = append(out.Valences, v)
		if v == Bivalent && out.BivalentIndex < 0 {
			out.BivalentIndex = i
		}
	}

	out.ReachableStates, out.ReachableEdges = reachable(g, prev, out)
	return out, nil
}

// expandRecheck recomputes one vertex's successor edges under sys,
// resolving targets against the layered store and interning fresh states
// (budget-checked) as it goes.
func expandRecheck(sys *system.System, rs *recheckStore, st system.State,
	edges []Edge, buf []byte, maxStates int, canon Canonicalizer) ([]Edge, []byte, error) {
	for _, task := range sys.Tasks() {
		if !sys.Applicable(st, task) {
			continue
		}
		succ, act, err := sys.Apply(st, task)
		if err != nil {
			return nil, buf, fmt.Errorf("explore: recheck apply %v: %w", task, err)
		}
		succ = canonical(canon, succ)
		buf = sys.AppendFingerprint(buf[:0], succ)
		id, ok := rs.Lookup(buf)
		if !ok {
			if rs.Len() >= maxStates {
				return nil, buf, &LimitError{Limit: maxStates, Explored: rs.Len()}
			}
			id, _ = rs.Intern(string(buf), succ, pred{})
		}
		edges = append(edges, Edge{Task: task, Action: act, To: id})
	}
	return edges, buf, nil
}

// edgesEqual compares a stored successor sequence against a freshly
// computed one, element by element.
func edgesEqual(stored iter.Seq[Edge], edges []Edge) bool {
	i := 0
	for e := range stored {
		if i >= len(edges) || edges[i] != e {
			return false
		}
		i++
	}
	return i == len(edges)
}

func masksEqual(a, b []uint8) bool {
	if a == nil || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reachable counts the states and edges reachable from the recheck
// roots — what a from-scratch build would report. When nothing changed
// and the roots are the base's, the base counts carry over without a
// walk (BuildGraph explores only from its roots, so the base graph is
// root-reachable by construction).
func reachable(g *Graph, prev *Graph, out *RecheckResult) (int, int) {
	if out.Dirty == 0 && out.Fresh == 0 && sameRoots(g.roots, prev.roots) {
		return prev.store.Len(), prev.edges
	}
	seen := make([]bool, g.store.Len())
	var queue []StateID
	for _, r := range g.roots {
		if !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	states, edges := 0, 0
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		states++
		for e := range g.store.EdgesFrom(id) {
			edges++
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return states, edges
}

// sameRoots reports set equality of two root lists.
func sameRoots(a, b []StateID) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[StateID]bool, len(a))
	for _, id := range a {
		in[id] = true
	}
	for _, id := range b {
		if !in[id] {
			return false
		}
	}
	return true
}
