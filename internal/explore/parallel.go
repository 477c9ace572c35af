package explore

import (
	"runtime"
	"slices"
	"sync"

	"github.com/ioa-lab/boosting/internal/system"
)

// effectiveWorkers resolves a Workers knob: 0 means one worker per CPU the
// process may run on at once (GOMAXPROCS, not the machine's CPU count: a pool
// wider than that only queues on the same Ps), anything below 1 means one.
func effectiveWorkers(w int) int {
	if w == 0 {
		return runtime.GOMAXPROCS(0)
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

// candidate is a successor that was not in the vertex store when its level
// started, recorded once per worker per level: the store key (an owned copy,
// which also keys the worker's index) and the state. id stays noState until
// the barrier resolves the candidate.
type candidate struct {
	key string
	st  system.State
	id  StateID
}

// candRef says that an expansion's edge-th edge leads to the recording
// worker's cand-th candidate; the barrier patches the edge's target from it.
type candRef struct {
	edge, cand uint32
}

// expansion is the result of expanding one vertex of a pooled level. edges
// and refs are windows of the expanding worker's arenas and refs index
// ws.cands, all valid until the level barrier resets the worker.
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
// at the barrier, so the table needs no lock. The adjacencies copy what SetSuccs
// hands them, so everything is reset — not freed — at every level barrier
// and the engine allocates no per-vertex slice. The first worker's scratch
// also serves the inline body, which uses the buffers and the edge arena
// (one vertex at a time) and never the table.
type workerScratch struct {
	buf, pkey []byte // a successor's key, the expanding vertex's
	task      int    // the task being applied, for recoverApply
	edges     []packedEdge
	cands     []candidate
	index     map[string]uint32 // candidate key → position in cands; made at the first candidate
	refs      []candRef
}

// pool is the level loop's reusable memory: one scratch per worker and the
// per-vertex results of a pooled level, every entry rewritten each level.
type pool struct {
	scratch []workerScratch
	results []expansion
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
// IDs through the frozen vertex store with the inline body's per-successor
// step (Graph.successor). A successor not yet stored becomes a candidate of
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
				// The one owned copy of the key, for the index and the
				// barrier.
				key := string(ws.buf)
				if canon == nil {
					next = st.With(d)
				}
				ci = uint32(len(ws.cands))
				ws.cands = append(ws.cands, candidate{key: key, st: next, id: noState})
				if ws.index == nil {
					ws.index = make(map[string]uint32)
				}
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

// expandPooled expands the level [lo, hi) across the pool's workers against
// the *frozen* vertex store (concurrent lookups, no writes); at the level
// barrier the coordinator walks the expansions in ID order and interns the
// level's discoveries serially. Serial interning at the barrier is what makes
// the body deterministic: a state gets its ID at the first reference to it in
// ID order × task order — whichever worker recorded the candidate behind that
// reference — so IDs, edges, predecessors and the overflow point are assigned
// in exactly the order expandInline would assign them, for any worker count:
// the graph is not merely isomorphic to the inline one, it is identical.
// Cancellation is observed mid-level by the expanding workers, before every
// vertex. A panic on a worker — a Program handler's, a service type's —
// becomes that vertex's error and fails the build at the barrier.
func (g *Graph) expandPooled(lo, hi StateID, maxStates int, p *pool, opt BuildOptions) error {
	n := int(hi - lo)
	p.results = slices.Grow(p.results[:0], n)[:n]
	results := p.results
	parallelForScratch(p.scratch, n, func(i int, ws *workerScratch) {
		if err := ctxErr(opt.Ctx); err != nil {
			results[i] = expansion{err: err}
			return
		}
		defer recoverApply(g.sys, &ws.task, &results[i].err)
		st, _ := g.store.State(lo + StateID(i))
		results[i] = g.expandFrontier(opt.Symmetry, st, ws)
	})
	// Level barrier: resolve the level's discoveries in ID order × task
	// order — the inline body's discovery order.
	for i := range results {
		res := &results[i]
		if res.err != nil {
			return res.err
		}
		from := lo + StateID(i)
		for _, ref := range res.refs {
			c := &res.ws.cands[ref.cand]
			if c.id == noState {
				// First reference to this candidate.
				var err error
				c.id, err = g.discover(stringBytes(c.key), c.st, packedEdge{to: from, Label: res.edges[ref.edge].Label}, maxStates)
				if err != nil {
					return err
				}
			}
			res.edges[ref.edge].to = c.id
		}
		g.adj.SetSuccs(from, res.edges)
		g.edges += len(res.edges)
	}
	for w := range p.scratch {
		p.scratch[w].reset()
	}
	return nil
}
