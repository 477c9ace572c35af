package explore

import (
	"context"
	"fmt"

	"github.com/ioa-lab/boosting/internal/ioa"
)

// Hook is the Fig. 2 pattern: from vertex Alpha, task E leads to the
// 0-valent Alpha0, while task EPrime leads to AlphaPrime from which E leads
// to the 1-valent Alpha1. (Valences may be swapped; Valence0 records the
// valence of Alpha0.)
type Hook struct {
	Alpha      StateID
	E          ioa.Task
	EPrime     ioa.Task
	AlphaPrime StateID
	Alpha0     StateID
	Alpha1     StateID
	// Valence0 is the valence of Alpha0 (ZeroValent or OneValent); Alpha1
	// has the opposite valence.
	Valence0 Valence
}

// String renders the hook in the paper's notation.
func (h Hook) String() string {
	v1 := OneValent
	if h.Valence0 == OneValent {
		v1 = ZeroValent
	}
	return fmt.Sprintf("hook: α —%v→ α0 (%v); α —%v→ α' —%v→ α1 (%v)",
		h.E, h.Valence0, h.EPrime, h.E, v1)
}

// Divergence certifies an infinite fair failure-free input-first execution
// through bivalent vertices only: the Fig. 3 construction revisited a
// (vertex, round-robin position) pair, so the deterministic fair schedule
// cycles forever and no process ever decides (every vertex on the cycle is
// bivalent, hence decision-free).
type Divergence struct {
	// CycleVertex is the repeated vertex.
	CycleVertex StateID
	// Steps is the number of construction steps taken before the repeat.
	Steps int
}

// HookSearchResult is the outcome of the Fig. 3 construction: exactly one of
// Hook and Divergence is non-nil.
type HookSearchResult struct {
	Hook       *Hook
	Divergence *Divergence
	// PathLen is the number of edges on the constructed bivalent path.
	PathLen int
}

// FindHook runs the Fig. 3 construction from a bivalent root vertex of g.
//
// Starting from the root it builds a path through bivalent vertices,
// considering tasks in round-robin order: for the next applicable task e it
// searches the descendants reachable without scheduling e for a vertex α′
// with e(α′) bivalent, and moves there. If no such vertex exists the
// construction terminates and the hook is located on the path from the
// current vertex to a vertex deciding the opposite value (Lemma 5's case
// analysis). If the construction revisits a configuration, the system
// diverges: an infinite fair bivalent path exists.
//
// The construction checks ctx at every step and inside every per-step BFS
// (each scanned level), so a cancelled context stops a long hook search
// mid-scan with ctx.Err(). A nil context never cancels.
func FindHook(ctx context.Context, g *Graph, root StateID) (HookSearchResult, error) {
	if g.Valence(root) != Bivalent {
		return HookSearchResult{}, fmt.Errorf("%w: %s", ErrNotBivalent, g.Valence(root))
	}
	tasks := g.sys.Tasks()
	// One BFS tree reused across every construction step: begin() bumps an
	// epoch instead of reallocating graph-size arrays per step.
	tree := newBFSTree(g.store.Len())
	alpha := root
	rr := 0
	pathLen := 0
	type cfg struct {
		id StateID
		rr int
	}
	seen := map[cfg]bool{}
	for {
		if err := ctxErr(ctx); err != nil {
			return HookSearchResult{}, err
		}
		if seen[cfg{alpha, rr}] {
			return HookSearchResult{
				Divergence: &Divergence{CycleVertex: alpha, Steps: pathLen},
				PathLen:    pathLen,
			}, nil
		}
		seen[cfg{alpha, rr}] = true

		// Next round-robin task applicable to alpha. A process task is
		// always applicable, so this terminates.
		var e ioa.Task
		found := false
		for probe := 0; probe < len(tasks); probe++ {
			cand := tasks[(rr+probe)%len(tasks)]
			if _, ok := g.Succ(alpha, cand); ok {
				e = cand
				rr = (rr + probe + 1) % len(tasks)
				found = true
				break
			}
		}
		if !found {
			return HookSearchResult{}, fmt.Errorf("explore: no applicable task at %q", g.Fingerprint(alpha))
		}

		// Search for α′ reachable from alpha without e-edges such that
		// e(α′) is bivalent.
		target, path, ok, err := g.findBivalentExtension(ctx, alpha, e, tree)
		if err != nil {
			return HookSearchResult{}, err
		}
		if !ok {
			// Construction terminates: for every α′ reachable without e,
			// e(α′) is univalent. Locate the hook.
			h, err := g.locateHook(ctx, alpha, e)
			if err != nil {
				return HookSearchResult{}, err
			}
			return HookSearchResult{Hook: h, PathLen: pathLen}, nil
		}
		pathLen += len(path) + 1
		edge, _ := g.Succ(target, e)
		alpha = edge.To
	}
}

// findBivalentExtension searches (BFS avoiding e-labelled edges, in the
// hook search's reused tree) for a vertex α′ with e(α′) bivalent, returning
// α′ and the path to it: the first such vertex in BFS order.
func (g *Graph) findBivalentExtension(ctx context.Context, alpha StateID, e ioa.Task, tree *bfsTree) (StateID, []Edge, bool, error) {
	return g.search(ctx, tree, alpha, func(edge Edge) bool { return edge.Task != e }, func(id StateID) bool {
		edge, ok := g.Succ(id, e)
		return ok && g.Valence(edge.To) == Bivalent
	})
}

// locateHook implements the case analysis at the end of Lemma 5's proof:
// alpha is bivalent, e(alpha) is univalent (say v-valent), and e(α′) is
// univalent for every α′ reachable from alpha without e-edges. Walk a path
// from alpha towards a vertex deciding the opposite value and find the flip.
func (g *Graph) locateHook(ctx context.Context, alpha StateID, e ioa.Task) (*Hook, error) {
	first, ok := g.Succ(alpha, e)
	if !ok {
		return nil, fmt.Errorf("explore: task %v not applicable at hook base", e)
	}
	v0 := g.Valence(first.To)
	if v0 != ZeroValent && v0 != OneValent {
		return nil, fmt.Errorf("explore: e(α) has valence %v at hook base", v0)
	}
	opposite := OneValent
	oppositeMask := maskOne
	if v0 == OneValent {
		opposite = ZeroValent
		oppositeMask = maskZero
	}
	// Find a descendant of alpha in which some process decides the opposite
	// value (it exists: alpha is bivalent).
	decPath, err := g.findDecidingPath(ctx, alpha, oppositeMask)
	if err != nil {
		return nil, err
	}
	// σ_0 = alpha, σ_{j+1} = target of decPath[j]. Let T be the index of the
	// first e-labelled edge on the path (Lemma 5's case 2), or len(decPath)
	// if e does not occur (case 1). For every j ≤ T, task e is applicable at
	// σ_j (Lemma 1: no e-edge occurs before σ_j), and the sequence of
	// valences of e(σ_j) starts v0-valent at j = 0 and reaches the opposite
	// valence by j = T: in case 1, e(σ_T) extends the vertex that already
	// decided the opposite value; in case 2, e(σ_T) = σ_{T+1} is an ancestor
	// of that vertex. Find the flip between consecutive entries.
	limit := len(decPath)
	for j, edge := range decPath {
		if edge.Task == e {
			limit = j
			break
		}
	}
	sigma := make([]StateID, 0, limit+1)
	sigma = append(sigma, alpha)
	for j := 0; j < limit; j++ {
		sigma = append(sigma, decPath[j].To)
	}
	prev := v0
	for j := 1; j <= limit; j++ {
		edge, ok := g.Succ(sigma[j], e)
		if !ok {
			return nil, fmt.Errorf("explore: e not applicable at σ_%d (Lemma 1 violated?)", j)
		}
		cur := g.Valence(edge.To)
		if cur == Bivalent {
			return nil, fmt.Errorf("explore: e(σ_%d) bivalent after construction terminated", j)
		}
		if prev == v0 && cur == opposite {
			// Hook found between σ_{j-1} and σ_j.
			e0, _ := g.Succ(sigma[j-1], e)
			return &Hook{
				Alpha:      sigma[j-1],
				E:          e,
				EPrime:     decPath[j-1].Task,
				AlphaPrime: sigma[j],
				Alpha0:     e0.To,
				Alpha1:     edge.To,
				Valence0:   v0,
			}, nil
		}
		prev = cur
	}
	return nil, fmt.Errorf("explore: no valence flip found along deciding path (len %d)", len(decPath))
}

// findDecidingPath returns a path (BFS tree) from start to a vertex whose
// state records a decision matching wantMask.
func (g *Graph) findDecidingPath(ctx context.Context, start StateID, wantMask uint8) ([]Edge, error) {
	_, path, ok, err := g.search(ctx, newBFSTree(g.store.Len()), start, nil, func(id StateID) bool {
		st, _ := g.store.State(id)
		return ownMask(g.sys, st)&wantMask != 0
	})
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w from %q", ErrNoDecision, g.Fingerprint(start))
	}
	return path, nil
}
