// Package symmetry reduces exploration modulo process renaming.
//
// The seed protocols are symmetric: process identities are interchangeable,
// so the execution graph G(C) of the paper contains up to n! isomorphic
// copies of every orbit — the same symmetry the FLP-style bivalence
// arguments quotient away implicitly. A Canonicalizer maps every system
// state to a canonical representative of its orbit under a declared
// permutation group; exploration engines that intern only canonical
// representatives build the quotient graph, which is smaller by up to the
// group order while preserving every value-based verdict (valences,
// refutation outcomes, hook existence) — decisions are compared by value,
// never by process identity.
//
// The group is declared per system as a Spec: disjoint orbits of
// interchangeable process ids, plus optional hooks describing how service
// indices and id-bearing payloads transform under a permutation. A
// permutation π acts on a state by
//
//   - moving process component states between slots (P_i's state to slot
//     π(i)), renaming service indices inside pending outbox invocations;
//   - moving service component states between slots when service indices
//     rename (a per-process register V_i becomes V_π(i));
//   - re-keying every service's per-endpoint invocation and response
//     buffers (endpoint i's buffers become endpoint π(i)'s), rewriting
//     id-bearing buffered payloads and service values via the Spec hooks;
//   - relabelling the service failed sets.
//
// Soundness requires π to be an automorphism of the transition system:
// programs must be identical up to id and the hooks must cover every place
// a process id is embedded in the state. The quotient-parity test suite
// asserts this empirically for every registry protocol. Systems whose
// states embed ids in ways the hooks cannot express (e.g. the
// failure-detector families, whose graph phases are skipped anyway) simply
// declare no orbits and get no reduction — which is always sound.
//
// Canonicalization is sorted-orbit: under a pure spec a process's entire
// contribution to the state is its component encoding plus, per service, its
// invocation queue, response queue and failed mark, none of which depends on
// its id. Ordering the slots of each orbit by those pieces pins the canonical
// slot order outright; ties are between byte-interchangeable processes, so
// any stable assignment is canonical (see canonicalSorted). The pieces are
// read from the state's interned cells — the cached process encoding, the
// service cell's endpoint index — and the renamed state is looked up by
// assembled encoding, so canonicalizing a successor whose components the
// System has seen before encodes nothing and builds no component state.
// Specs with rename/rewrite hooks make per-process content id-dependent, so
// those systems fall back to enumerating the whole (declared) group — exact
// for the small groups this repository explores.
package symmetry

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/ioa-lab/boosting/internal/codec"
	"github.com/ioa-lab/boosting/internal/process"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/system"
)

// MaxGroupOrder bounds the declared permutation group of a spec with
// rename/rewrite hooks, whose group is enumerated: canonicalization work per
// state is then linear in the number of candidate permutations, and beyond
// 8! the per-state cost dwarfs the n!-fold state savings. Pure specs sort
// instead of enumerating and are not bounded.
const MaxGroupOrder = 40320

// Spec declares the symmetry of a composed system.
//
// The zero Spec declares no symmetry (canonicalization is the identity).
// All hooks receive perm, the process-id permutation π as a function; they
// must be pure. A nil hook means the corresponding state component carries
// no process ids and transforms trivially.
type Spec struct {
	// Orbits lists disjoint sets of interchangeable process ids. Processes
	// not listed are fixed by every permutation of the group, which is the
	// product of the symmetric groups of the orbits.
	Orbits [][]int
	// RenameService maps a service index under π (the per-process register
	// V_i of a renamed process becomes V_π(i)). It must be a bijection of
	// the system's service index set for every group element. nil = every
	// service index is fixed.
	RenameService func(svc string, perm func(int) int) string
	// RewriteVal rewrites a service value under π (a totally-ordered
	// broadcast queue of (message, sender) pairs relabels its senders).
	// nil = values carry no process ids.
	RewriteVal func(svc, val string, perm func(int) int) string
	// RewriteResponse rewrites one buffered response under π.
	// nil = responses carry no process ids. (Buffered *invocations* are
	// value-only in every declared spec — the seed protocols invoke with
	// init/write/read/bcast payloads — so there is deliberately no
	// invocation counterpart; add one alongside a spec that needs it.)
	RewriteResponse func(svc, item string, perm func(int) int) string
}

// pure reports whether the spec transforms only component positions —
// no service renaming, no payload rewriting — so per-process content is
// id-independent and the sorted-orbit path applies.
func (sp *Spec) pure() bool {
	return sp.RenameService == nil && sp.RewriteVal == nil && sp.RewriteResponse == nil
}

// Canonicalizer maps system states to canonical orbit representatives. It
// is immutable after New and safe for concurrent use.
type Canonicalizer struct {
	sys     *system.System
	spec    Spec
	procIDs []int
	svcIDs  []string
	svcSlot map[string]int
	// orbits holds the orbit member slots, ascending; slots outside every
	// orbit are fixed points.
	orbits [][]int
	order  int
	pure   bool
	// perms is the whole group as slot-level maps (perm[slot] = image
	// slot), precomputed for the general path. Empty on the pure path.
	perms [][]int
	// svcMaps[i] is the service-slot relabelling of perms[i].
	svcMaps [][]int
	bufs    sync.Pool
}

// scratch is the general path's per-call workspace: the least candidate
// fingerprint so far and the one being compared against it.
type scratch struct {
	best []byte
	cand []byte
}

// New builds a Canonicalizer for sys from a declared symmetry Spec. Orbit
// members must be process ids of sys and orbits must be disjoint. Specs with
// rename/rewrite hooks have the whole group enumerated and the service
// renaming validated here, so their group order (the product of the orbit
// factorials) must not exceed MaxGroupOrder.
func New(sys *system.System, spec Spec) (*Canonicalizer, error) {
	c := &Canonicalizer{
		sys:     sys,
		spec:    spec,
		procIDs: sys.ProcessIDs(),
		svcIDs:  sys.ServiceIDs(),
		order:   1,
		pure:    spec.pure(),
	}
	c.svcSlot = make(map[string]int, len(c.svcIDs))
	for slot, k := range c.svcIDs {
		c.svcSlot[k] = slot
	}
	seen := make(map[int]bool)
	for _, orbit := range spec.Orbits {
		var slots []int
		for _, id := range orbit {
			slot := c.slotOf(id)
			if slot < 0 {
				return nil, fmt.Errorf("symmetry: orbit member %d is not a process of the system", id)
			}
			if seen[id] {
				return nil, fmt.Errorf("symmetry: process %d appears in two orbits", id)
			}
			seen[id] = true
			slots = append(slots, slot)
		}
		if len(slots) < 2 {
			continue // a singleton orbit is a fixed point
		}
		sort.Ints(slots)
		for f := 2; f <= len(slots); f++ {
			if c.order > math.MaxInt/f {
				c.order = math.MaxInt
			} else {
				c.order *= f
			}
		}
		c.orbits = append(c.orbits, slots)
	}
	switch {
	case c.order == 1:
	case c.pure:
		// The sorted-orbit path reads the services' endpoint indexes, which
		// hold endpoints — process ids — as int32.
		for _, id := range c.procIDs {
			if id < math.MinInt32 || id > math.MaxInt32 {
				return nil, fmt.Errorf("symmetry: process id %d does not fit the services' endpoint index (int32)", id)
			}
		}
	case c.order > MaxGroupOrder:
		return nil, fmt.Errorf("symmetry: group order exceeds %d; run without symmetry reduction", MaxGroupOrder)
	default:
		c.bufs.New = func() any { return new(scratch) }
		if err := c.enumerateGroup(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Order returns the order of the declared permutation group; 1 means
// canonicalization is the identity. It saturates at math.MaxInt.
func (c *Canonicalizer) Order() int { return c.order }

// enumerateGroup precomputes every group element as a slot map (identity
// first) and its induced service-slot relabelling, validating that the
// spec's service renaming is a bijection of the service index set.
func (c *Canonicalizer) enumerateGroup() error {
	identity := make([]int, len(c.procIDs))
	for i := range identity {
		identity[i] = i
	}
	perms := [][]int{identity}
	for _, orbit := range c.orbits {
		var next [][]int
		images := append([]int{}, orbit...)
		permute(images, 0, func(img []int) {
			for _, base := range perms {
				p := append([]int{}, base...)
				for j, slot := range orbit {
					p[slot] = img[j]
				}
				next = append(next, p)
			}
		})
		perms = next
	}
	// Move the identity to index 0 (permute emits it first only for the
	// single-orbit case; the product loop preserves that, but be explicit).
	for i, p := range perms {
		if isIdentity(p) {
			perms[0], perms[i] = perms[i], perms[0]
			break
		}
	}
	c.perms = perms
	c.svcMaps = make([][]int, len(perms))
	for i, p := range perms {
		m, err := c.serviceMap(p)
		if err != nil {
			return err
		}
		c.svcMaps[i] = m
	}
	return nil
}

// serviceMap resolves the service-slot relabelling induced by a process
// permutation and checks it is a bijection.
func (c *Canonicalizer) serviceMap(p []int) ([]int, error) {
	m := make([]int, len(c.svcIDs))
	if c.spec.RenameService == nil {
		for i := range m {
			m[i] = i
		}
		return m, nil
	}
	idPerm := c.idPerm(p)
	hit := make([]bool, len(c.svcIDs))
	for slot, k := range c.svcIDs {
		k2 := c.spec.RenameService(k, idPerm)
		target, ok := c.svcSlot[k2]
		if !ok {
			return nil, fmt.Errorf("symmetry: service %q renames to unknown service %q", k, k2)
		}
		if hit[target] {
			return nil, fmt.Errorf("symmetry: service renaming is not a bijection (two services map to %q)", k2)
		}
		hit[target] = true
		m[slot] = target
	}
	return m, nil
}

// permute generates every permutation of items in place, calling f with
// each arrangement (f must not retain the slice).
func permute(items []int, k int, f func([]int)) {
	if k == len(items) {
		f(items)
		return
	}
	for i := k; i < len(items); i++ {
		items[k], items[i] = items[i], items[k]
		permute(items, k+1, f)
		items[k], items[i] = items[i], items[k]
	}
}

func isIdentity(p []int) bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}

// slotOf returns the slot of process id in the (ascending) component order,
// or -1.
func (c *Canonicalizer) slotOf(id int) int {
	if slot, ok := slices.BinarySearch(c.procIDs, id); ok {
		return slot
	}
	return -1
}

// idPerm lifts a slot-level permutation to a process-id permutation.
// Ids outside the system map to themselves.
func (c *Canonicalizer) idPerm(p []int) func(int) int {
	return func(id int) int {
		if slot := c.slotOf(id); slot >= 0 {
			return c.procIDs[p[slot]]
		}
		return id
	}
}

// Canonical returns the canonical representative of st's orbit: the state
// of the orbit with the lexicographically least canonical fingerprint among
// the candidates the sorted-orbit analysis leaves open. It is a pure
// function and constant on orbits, so interning only canonical
// representatives merges each orbit into one vertex.
func (c *Canonicalizer) Canonical(st system.State) system.State {
	switch {
	case c.order == 1:
		return st
	case c.pure:
		return c.canonicalSorted(st)
	}
	sc := c.bufs.Get().(*scratch)
	defer c.bufs.Put(sc)
	return c.canonicalEnumerated(st, sc)
}

// canonicalEnumerated scans the precomputed group for the least permuted
// fingerprint (general path: specs with rename/rewrite hooks). Candidates
// are encoded straight from their rewritten components; only the winner is
// interned into a State, so the losing renamings leave no cells behind.
func (c *Canonicalizer) canonicalEnumerated(st system.State, sc *scratch) system.State {
	best := -1
	var bestProcs []process.State
	var bestSvcs []service.State
	sc.best = c.sys.AppendFingerprint(sc.best[:0], st)
	for i := 1; i < len(c.perms); i++ {
		procs, svcs := c.permuted(st, c.perms[i], c.svcMaps[i])
		sc.cand = sc.cand[:0]
		for j := range procs {
			sc.cand = procs[j].AppendFingerprint(sc.cand)
		}
		for j := range svcs {
			sc.cand = svcs[j].AppendFingerprint(sc.cand)
		}
		if bytes.Compare(sc.cand, sc.best) < 0 {
			best, bestProcs, bestSvcs = i, procs, svcs
			sc.best, sc.cand = sc.cand, sc.best
		}
	}
	if best < 0 {
		return st
	}
	return c.stateOf(bestProcs, bestSvcs)
}

// inlineSlots is how many process slots canonicalSorted orders in a
// stack-allocated workspace.
const inlineSlots = 16

// canonicalSorted is the pure-spec path: order each orbit's slots by their
// invariant per-process pieces and apply the resulting slot assignment
// outright.
//
// Canonicity: the pieces are equivariant — permuting the state permutes them
// with it — so their multiset and sorted order are orbit invariants. Ties
// need no resolution: under a pure spec the pieces cover a process's *entire*
// contribution to the state (its component encoding, its invocation and
// response queue in every service, its failed-set membership; service values
// are untouched by pure actions), so tied processes are interchangeable at
// the byte level and every assignment of a tie block produces the identical
// state. Any stable assignment is therefore the canonical one. If a pure
// action ever grows a per-process contribution outside less, that
// completeness argument — and this shortcut — breaks; extend less with it.
//
// A successor of a canonical state is nearly ordered already (a step touches
// at most one process), so each orbit is insertion-sorted in place: an
// ordered orbit costs one comparison per slot and returns st itself.
func (c *Canonicalizer) canonicalSorted(st system.State) system.State {
	n := len(c.procIDs)
	var inline [2 * inlineSlots]int
	work := inline[:]
	if 2*n > len(work) {
		work = make([]int, 2*n)
	}
	perm, ranked := work[:n], work[n:2*n]
	for i := range perm {
		perm[i] = i
	}
	identity := true
	for _, orbit := range c.orbits {
		// ranked = orbit slots in piece order; the slot of rank j moves to
		// canonical position orbit[j].
		ranked = ranked[:len(orbit)]
		copy(ranked, orbit)
		for i := 1; i < len(ranked); i++ {
			for j := i; j > 0 && c.less(st, ranked[j], ranked[j-1]); j-- {
				ranked[j], ranked[j-1] = ranked[j-1], ranked[j]
				identity = false
			}
		}
		for j, slot := range ranked {
			perm[slot] = orbit[j]
		}
	}
	if identity {
		return st
	}
	return c.sys.Permuted(st, perm)
}

// less orders slot a's invariant pieces before slot b's: the process
// component encoding, then the process's share of every service state —
// invocation queue, response queue, failed mark — in fixed service order.
// Each piece is a self-delimiting encoding, so comparing piece by piece is
// comparing the pieces concatenated, without building the concatenation.
func (c *Canonicalizer) less(st system.State, a, b int) bool {
	if x := strings.Compare(st.ProcEncoding(a), st.ProcEncoding(b)); x != 0 {
		return x < 0
	}
	ida, idb := c.procIDs[a], c.procIDs[b]
	for svc := range c.svcIDs {
		if x := st.CompareEndpoints(svc, ida, idb); x != 0 {
			return x < 0
		}
	}
	return false
}

func (c *Canonicalizer) stateOf(procs []process.State, svcs []service.State) system.State {
	out, err := c.sys.StateOf(procs, svcs)
	if err != nil {
		// Unreachable: the slices are sized from the system's own layout.
		panic(err)
	}
	return out
}

// permuted returns the components of π(st): slot's process state, with its
// outbox relabelled, lands in slot p[slot], and each service is relabelled
// and moved to the slot svcMap assigns it.
func (c *Canonicalizer) permuted(st system.State, p []int, svcMap []int) ([]process.State, []service.State) {
	idPerm := c.idPerm(p)
	procs := make([]process.State, len(p))
	for slot := range p {
		procs[p[slot]] = c.rewriteProc(st.Proc(slot), idPerm)
	}
	svcs := make([]service.State, len(c.svcIDs))
	for slot, k := range c.svcIDs {
		svcs[svcMap[slot]] = c.rewriteSvc(k, st.Svc(slot), idPerm)
	}
	return procs, svcs
}

// rewriteProc relabels service indices inside a process's pending outbox.
// Variables, the recorded decision and the flags never carry ids under a
// declared spec, so everything else is shared.
func (c *Canonicalizer) rewriteProc(ps process.State, idPerm func(int) int) process.State {
	if c.spec.RenameService == nil || len(ps.Outbox) == 0 {
		return ps
	}
	out := make([]process.Outgoing, len(ps.Outbox))
	copy(out, ps.Outbox)
	for i := range out {
		if out[i].Kind == process.OutInvoke {
			out[i].Service = c.spec.RenameService(out[i].Service, idPerm)
		}
	}
	ps.Outbox = out
	return ps
}

// rewriteSvc relabels a service state under π: the value via the spec hook,
// the per-endpoint buffers re-keyed (and the responses rewritten), and the
// failed set relabelled.
func (c *Canonicalizer) rewriteSvc(k string, ss service.State, idPerm func(int) int) service.State {
	var rewrite func(string) string
	if c.spec.RewriteResponse != nil {
		rewrite = func(it string) string { return c.spec.RewriteResponse(k, it, idPerm) }
	}
	out := service.State{Val: ss.Val, Inv: ss.Inv.Rekeyed(idPerm, nil), Resp: ss.Resp.Rekeyed(idPerm, rewrite), Failed: ss.Failed}
	if c.spec.RewriteVal != nil {
		out.Val = c.spec.RewriteVal(k, ss.Val, idPerm)
	}
	if ss.Failed.Len() > 0 {
		members := ss.Failed.Members()
		mapped := make([]int, len(members))
		for i, m := range members {
			mapped[i] = idPerm(m)
		}
		out.Failed = codec.NewIntSet(mapped...)
	}
	return out
}
