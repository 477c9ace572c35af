package explore

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/ioa-lab/boosting/internal/system"
)

// effectiveWorkers resolves a Workers knob: 0 means one worker per CPU,
// anything below 1 means serial.
func effectiveWorkers(w int) int {
	if w == 0 {
		return runtime.NumCPU()
	}
	if w < 1 {
		return 1
	}
	return w
}

// parallelFor runs f(0) … f(n-1) over the given number of workers, splitting
// the index space into contiguous chunks. It degenerates to a plain loop when
// workers <= 1 or the index space is trivial.
func parallelFor(workers, n int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// parallelForScratch is parallelFor with worker-local scratch: the index
// space splits into at most len(scratch) contiguous chunks and chunk w runs
// with &scratch[w], so buffers a worker grows are reused from one index to
// the next — and, when the caller keeps the slice, from one call to the
// next.
func parallelForScratch[S any](scratch []S, n int, f func(i int, s *S)) {
	workers := min(len(scratch), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i, &scratch[0])
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w, lo := 0, 0; lo < n; w, lo = w+1, lo+chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(s *S, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f(i, s)
			}
		}(&scratch[w], lo, hi)
	}
	wg.Wait()
}

// candidate is a successor that was not in the state store when its level
// started, recorded once per worker per level: the store key (an owned
// copy), the state and the state's own decision mask — computed here by the
// worker so the serial level barrier does not pay a sys.Decisions call per
// intern. id stays noState until the barrier resolves the candidate.
type candidate struct {
	key  string
	st   system.State
	id   StateID
	mask uint8
}

// candRef says that an expansion's edge-th edge leads to the recording
// worker's cand-th candidate; the barrier patches the edge's target from it.
type candRef struct {
	edge, cand uint32
}

// expansion is the result of expanding one frontier vertex. edges and refs
// are windows of the expanding worker's arenas and refs index ws.cands, all
// valid until the level barrier resets the worker.
type expansion struct {
	edges []packedEdge
	refs  []candRef
	ws    *workerScratch
	err   error
}

// workerScratch is one expansion worker's reusable memory: its key buffers,
// the arena of 8-byte edges the level's expansions are appended to, and the
// level's candidate table — the candidates, an index of them by store key,
// and the arena of references expansions hold into them. Only the owning
// worker touches a scratch while a level expands and only the coordinator
// at the barrier, so the table needs no lock. The stores copy what SetSuccs
// hands them, so everything is reset — not freed — at every level barrier
// and the engine allocates no per-vertex slice.
type workerScratch struct {
	buf, pkey []byte // a successor's key, the expanding vertex's
	task      int    // the task being applied, for recoverApply
	edges     []packedEdge
	cands     []candidate
	index     map[string]uint32 // candidate key → position in cands
	refs      []candRef
}

// reset empties the level-local arenas and the candidate table, keeping
// their memory for the next level.
func (ws *workerScratch) reset() {
	ws.edges = ws.edges[:0]
	ws.refs = ws.refs[:0]
	clear(ws.cands) // drop the keys and states the store now owns
	ws.cands = ws.cands[:0]
	clear(ws.index)
}

// expandFrontier applies every applicable task to st, resolving successor
// IDs through the frozen state store with the serial loop's per-successor
// body (Graph.successor). A successor not yet stored becomes a candidate of
// the calling worker the first time the worker meets it in this level; every
// edge to it is left at noState with a reference to the candidate, to be
// patched at the level barrier. ws is the calling worker's scratch.
func (g *Graph) expandFrontier(canon Canonicalizer, st system.State, ws *workerScratch) expansion {
	out := expansion{ws: ws}
	lo, refLo := len(ws.edges), len(ws.refs)
	if canon == nil {
		ws.pkey = g.store.AppendKey(ws.pkey[:0], st)
	}
	for ws.task = range g.sys.Tasks() {
		e, d, next, ok, err := g.successor(canon, st, ws.pkey, ws.task, &ws.buf)
		if err != nil {
			out.err = err
			break
		}
		if !ok {
			continue
		}
		if e.to == noState {
			ci, seen := ws.index[string(ws.buf)]
			if !seen {
				// The one owned copy of the key: the store takes ownership
				// at the barrier, so the spill store keeps this string in
				// its pending window without copying again.
				key := string(ws.buf)
				if canon == nil {
					next = st.With(d)
				}
				ci = uint32(len(ws.cands))
				ws.cands = append(ws.cands, candidate{key: key, st: next, id: noState, mask: ownMask(g.sys, next)})
				ws.index[key] = ci
			}
			ws.refs = append(ws.refs, candRef{edge: uint32(len(ws.edges) - lo), cand: ci})
		}
		ws.edges = append(ws.edges, e)
	}
	// Capped, so nothing appended through a window can reach the next
	// expansion's entries.
	out.edges = ws.edges[lo:len(ws.edges):len(ws.edges)]
	out.refs = ws.refs[refLo:len(ws.refs):len(ws.refs)]
	return out
}

// exploreParallel is the worker-pool level loop behind BuildGraph: a
// level-synchronous BFS over the interned ID space. Each frontier level is
// expanded across workers against the *frozen* state store (concurrent
// lookups, no writes); at the level barrier the coordinator walks the
// expansions in frontier order and interns the level's discoveries serially.
// Serial interning at the barrier is what makes the loop deterministic: a
// state gets its ID at the first reference to it in frontier order × task
// order — whichever worker recorded the candidate behind that reference —
// so IDs, edges, predecessors and the overflow point are assigned in exactly
// the order exploreSerial would assign them, for any worker count: the
// parallel graph is not merely isomorphic to the serial one, it is
// identical. Progress reports and context cancellation mirror the serial
// loop: one report per level barrier, cancellation observed mid-level by
// the expanding workers. A panic on a worker — a Program handler's, a service
// type's — becomes that vertex's error and fails the build at the barrier.
func (g *Graph) exploreParallel(maxStates, workers int, opt BuildOptions) error {
	frontier := make([]StateID, g.store.Len())
	for i := range frontier {
		frontier[i] = StateID(i)
	}
	level := 0
	scratch := make([]workerScratch, workers)
	for w := range scratch {
		scratch[w].index = make(map[string]uint32)
	}
	var results []expansion // reused: every entry is rewritten each level
	var next []StateID      // reused: swapped with frontier at each barrier
	for len(frontier) > 0 {
		results = slices.Grow(results[:0], len(frontier))[:len(frontier)]
		parallelForScratch(scratch, len(frontier), func(i int, ws *workerScratch) {
			if err := ctxErr(opt.Ctx); err != nil {
				results[i] = expansion{err: err}
				return
			}
			defer recoverApply(g.sys, &ws.task, &results[i].err)
			st, _ := g.store.State(frontier[i])
			results[i] = g.expandFrontier(opt.Symmetry, st, ws)
		})
		// Level barrier: resolve the level's discoveries in frontier order ×
		// task order — the serial engine's discovery order.
		next = next[:0]
		for i := range results {
			res := &results[i]
			if res.err != nil {
				return res.err
			}
			for _, ref := range res.refs {
				c := &res.ws.cands[ref.cand]
				if c.id == noState {
					// First reference to this candidate. Another worker's
					// candidate for the same state may have been interned
					// already, which the lookup finds.
					id, ok := g.store.Lookup(stringBytes(c.key))
					if !ok {
						if g.store.Len() >= maxStates {
							return &LimitError{Limit: maxStates, Explored: g.store.Len()}
						}
						// The worker already computed this vertex's decision
						// mask; record it directly instead of re-deriving it
						// on the coordinator (see Graph.ownMasks).
						var fr bool
						id, fr = g.store.Intern(c.key, c.st, packedEdge{to: frontier[i], Label: res.edges[ref.edge].Label})
						if fr {
							g.ownMasks = append(g.ownMasks, c.mask)
						}
						next = append(next, id)
					}
					c.id = id
				}
				res.edges[ref.edge].to = c.id
			}
			g.store.SetSuccs(frontier[i], res.edges)
			g.edges += len(res.edges)
		}
		// The barrier still holds the store exclusively: seal the level's
		// edges so the spill backend moves them out of RAM before the next
		// level's workers start reading.
		g.store.SealLevel()
		for w := range scratch {
			scratch[w].reset()
		}
		if opt.Progress != nil {
			opt.Progress(Progress{Level: level, States: g.store.Len(), Edges: g.edges, Frontier: len(next)})
		}
		level++
		frontier, next = next, frontier
	}
	return nil
}

// computeMasksParallel is the parallel counterpart of computeMasks: the same
// backward fixpoint mask(s) = decided(s) ∪ ⋃_{s→t} mask(t), computed as a
// chaotic iteration directly over the store-backed adjacency. Masks only grow
// under ∪, so concurrent sweeps converge to the same least fixpoint as the
// serial iteration; each vertex is written by exactly one worker per sweep
// and successor masks are read atomically.
func (g *Graph) computeMasksParallel(workers int) {
	n := g.store.Len()
	masks := make([]uint32, n)
	// Seed with each state's own decisions, recorded at intern time. The
	// recording is only needed for this seeding, so release it after.
	for i, m := range g.ownMasks {
		masks[i] = uint32(m)
	}
	g.ownMasks = nil
	targets := make([][]StateID, workers) // one successor buffer per sweeping goroutine
	for {
		var changed atomic.Bool
		parallelForScratch(targets, n, func(i int, buf *[]StateID) {
			m := atomic.LoadUint32(&masks[i])
			next := m
			*buf = g.store.Targets(StateID(i), (*buf)[:0])
			for _, to := range *buf {
				next |= atomic.LoadUint32(&masks[to])
			}
			if next != m {
				atomic.StoreUint32(&masks[i], next)
				changed.Store(true)
			}
		})
		if !changed.Load() {
			break
		}
	}
	g.masks = make([]uint8, n)
	for i := range masks {
		g.masks[i] = uint8(masks[i])
	}
}
