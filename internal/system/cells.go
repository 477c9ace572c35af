package system

import (
	"sync"
	"sync/atomic"

	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/process"
	"github.com/ioa-lab/boosting/internal/service"
)

// This file holds the interned component cells behind State and the memo of
// the deterministic component transitions out of them (DESIGN.md, "Component
// interning and transition memo").
//
// Ownership: every cell belongs to exactly one slot of exactly one System.
// The transition out of a cell depends on the slot's automaton — its process
// id and program, or its service type, resilience and silence policy — so a
// memo entry is only ever read through the slot that wrote it. A cell that
// reaches a slot it does not belong to (a state decoded by another System,
// or a process component the symmetry layer moves between slots) is re-homed
// by encoding before its memo is consulted. Encodings do not depend on the
// slot, so reading a foreign cell's state or encoding needs no re-homing.
//
// Indices: a slot numbers its cells 0, 1, 2, … as they are published, and
// AppendKey identifies a state by those numbers. Which goroutine interned a
// component state first decides its number, so an index is meaningful only
// inside this process and this System, and only for equality.
//
// Locking: the table locks guard map reads and writes only. Transitions
// run caller-supplied code (Program handlers, a service type's δ1/δ2), so
// they are computed with no lock held and published afterwards; a memo value
// is a pure function of its key, so racing writers publish equal values. The
// same holds for a service cell's endpoint index, published by atomic store.

// table is a lock-guarded map to cells: the cells of one component slot by
// canonical encoding, or the memo of one cell's transitions by input.
type table[K comparable, C any] struct {
	mu sync.Mutex
	m  map[K]*C
}

func (t *table[K, C]) get(k K) *C {
	t.mu.Lock()
	c := t.m[k]
	t.mu.Unlock()
	return c
}

// getBytes is get for a key still in an encode buffer; the conversion in
// the index expression does not allocate.
func getBytes[C any](t *table[string, C], k []byte) *C {
	t.mu.Lock()
	c := t.m[string(k)]
	t.mu.Unlock()
	return c
}

func (t *table[K, C]) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// put publishes c under k unless a racing caller already published a cell
// for the same key, and returns the cell the table holds. A slot publishing
// one of its own cells passes idx, a field of c, to receive the slot's next
// dense index: written under the lock and before c is reachable, so it never
// changes once visible. A memo table passes nil.
func (t *table[K, C]) put(k K, c *C, idx *uint32) *C {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.m[k]; ok {
		return old
	}
	if t.m == nil {
		t.m = make(map[K]*C)
	}
	if idx != nil {
		*idx = uint32(len(t.m))
	}
	t.m[k] = c
	return c
}

// procSlot is one process position of the component order: the automaton
// and the table of its interned states.
type procSlot struct {
	p *process.Process
	table[string, procCell]
}

// procCell is one interned process state.
type procCell struct {
	home *procSlot
	st   process.State
	enc  string // canonical encoding of st
	idx  uint32 // dense index among home's cells, in publication order

	step atomic.Pointer[procEdge] // memo of Process.Step
	resp table[respKey, procCell] // memo of Process.OnResponse
}

// procEdge is the memoized process task out of a cell.
type procEdge struct {
	next *procCell
	act  ioa.Action
}

// respKey identifies a response input b_{i,c} by service index and payload.
type respKey struct {
	svc, resp string
}

// svcSlot is one service position of the component order.
type svcSlot struct {
	sv *service.Service
	table[string, svcCell]
}

// svcCell is one interned service state.
type svcCell struct {
	home *svcSlot
	st   service.State
	enc  string // canonical encoding of st
	idx  uint32 // dense index among home's cells, in publication order

	// memo holds the transitions out of the cell, allocated by the first
	// one asked of it: most cells of a symmetry-reduced build belong to
	// successors that are renamed, never expanded.
	memo atomic.Pointer[svcMemo]

	// eps indexes enc by endpoint for the symmetry layer, built on first
	// use. Unlike the memo it is a function of enc alone, so it is read
	// through any slot and any System without re-homing.
	eps atomic.Pointer[service.Endpoints]
}

// svcMemo is the transition memo of one service cell.
type svcMemo struct {
	apply  []atomic.Pointer[svcEdge] // memo of Service.Apply, by taskIndex
	invoke table[invKey, svcCell]    // memo of Service.Invoke
}

// svcEdge is one memoized service task out of a cell.
type svcEdge struct {
	next *svcCell
	act  ioa.Action
}

// notEnabled is the memo entry of a task with no enabled action in the
// cell's state. It records only the applicability answer: applying such a
// task still asks the service, so the error is reported as Service.Apply
// reports it.
var notEnabled = new(svcEdge)

// invKey identifies an invocation input a_{i,k}.
type invKey struct {
	proc int
	inv  string
}

// taskIndex returns the position of task in the slot's Service.Tasks() order
// (i-perform and i-output per endpoint, then g-compute per global task), or
// -1 if the service has no such task.
func (sl *svcSlot) taskIndex(task ioa.Task) int {
	eps := sl.sv.Endpoints()
	switch task.Kind {
	case ioa.TaskPerform, ioa.TaskOutput:
		for i, e := range eps {
			if e == task.Proc {
				if task.Kind == ioa.TaskOutput {
					return 2*i + 1
				}
				return 2 * i
			}
		}
	case ioa.TaskCompute:
		for i, g := range sl.sv.Type().Glob {
			if g == task.Global {
				return 2*len(eps) + i
			}
		}
	}
	return -1
}

// encBufs pools the scratch buffers components are encoded into on their way
// to a table lookup.
var encBufs = sync.Pool{New: func() any {
	buf := make([]byte, 0, 256)
	return &buf
}}

// intern returns the slot's cell for ps, creating it on first sight.
func (sl *procSlot) intern(ps process.State) *procCell {
	bp := encBufs.Get().(*[]byte)
	buf := ps.AppendFingerprint((*bp)[:0])
	c := getBytes(&sl.table, buf)
	if c == nil {
		c = sl.newCell(ps, string(buf))
	}
	*bp = buf
	encBufs.Put(bp)
	return c
}

// intern returns the slot's cell for ss, creating it on first sight.
func (sl *svcSlot) intern(ss service.State) *svcCell {
	bp := encBufs.Get().(*[]byte)
	buf := ss.AppendFingerprint((*bp)[:0])
	c := getBytes(&sl.table, buf)
	if c == nil {
		c = sl.newCell(ss, string(buf))
	}
	*bp = buf
	encBufs.Put(bp)
	return c
}

func (sl *procSlot) newCell(ps process.State, enc string) *procCell {
	c := &procCell{home: sl, st: ps, enc: enc}
	return sl.put(enc, c, &c.idx)
}

func (sl *svcSlot) newCell(ss service.State, enc string) *svcCell {
	c := &svcCell{home: sl, st: ss, enc: enc}
	return sl.put(enc, c, &c.idx)
}

// transitions returns c's transition memo.
func (c *svcCell) transitions() *svcMemo {
	if m := c.memo.Load(); m != nil {
		return m
	}
	sv := c.home.sv
	m := &svcMemo{apply: make([]atomic.Pointer[svcEdge], 2*len(sv.Endpoints())+len(sv.Type().Glob))}
	if !c.memo.CompareAndSwap(nil, m) {
		return c.memo.Load()
	}
	return m
}

// adopt returns the slot's cell holding c's state: c itself unless it
// belongs to another slot or another System.
func (sl *procSlot) adopt(c *procCell) *procCell {
	if c.home == sl {
		return c
	}
	if h := sl.get(c.enc); h != nil {
		return h
	}
	return sl.newCell(c.st, c.enc)
}

// adopt returns the slot's cell holding c's state: c itself unless it
// belongs to another slot or another System.
func (sl *svcSlot) adopt(c *svcCell) *svcCell {
	if c.home == sl {
		return c
	}
	if h := sl.get(c.enc); h != nil {
		return h
	}
	return sl.newCell(c.st, c.enc)
}

// endpoints returns the per-endpoint index of c's encoding.
func (c *svcCell) endpoints() *service.Endpoints {
	if e := c.eps.Load(); e != nil {
		return e
	}
	e, err := service.IndexEndpoints(c.enc)
	if err != nil {
		// Unreachable: enc was written by AppendFingerprint or accepted by
		// ParseStatePrefix.
		panic(err)
	}
	c.eps.Store(e)
	return e
}

// renamed returns the slot's cell for c's state with every endpoint i
// relabelled rename(i). The relabelled encoding is assembled from c's indexed
// encoding and looked up; the relabelled service.State is built only for an
// encoding the slot has not seen.
func (sl *svcSlot) renamed(c *svcCell, rename func(int) int) *svcCell {
	eps := c.endpoints()
	if !eps.Moved(rename) {
		return sl.adopt(c)
	}
	bp := encBufs.Get().(*[]byte)
	buf := eps.AppendRenamed((*bp)[:0], c.enc, rename)
	r := getBytes(&sl.table, buf)
	if r == nil {
		r = sl.newCell(c.st.Renamed(rename), string(buf))
	}
	*bp = buf
	encBufs.Put(bp)
	return r
}

// stepped returns the memoized process task out of c.
func (c *procCell) stepped() *procEdge {
	if e := c.step.Load(); e != nil {
		return e
	}
	ps, act := c.home.p.Step(c.st)
	e := &procEdge{next: c.home.intern(ps), act: act}
	c.step.Store(e)
	return e
}

// responded returns the cell c moves to on response resp from service svc.
func (c *procCell) responded(svc, resp string) *procCell {
	key := respKey{svc: svc, resp: resp}
	if next := c.resp.get(key); next != nil {
		return next
	}
	return c.resp.put(key, c.home.intern(c.home.p.OnResponse(c.st, svc, resp)), nil)
}

// invoked returns the cell c moves to when process proc submits inv.
// Rejected invocations are reported as Service.Invoke reports them and are
// not memoized.
func (c *svcCell) invoked(proc int, inv string) (*svcCell, error) {
	key := invKey{proc: proc, inv: inv}
	memo := &c.transitions().invoke
	if next := memo.get(key); next != nil {
		return next, nil
	}
	ss, err := c.home.sv.Invoke(c.st, proc, inv)
	if err != nil {
		return nil, err
	}
	return memo.put(key, c.home.intern(ss), nil), nil
}

// applicable reports whether task has an enabled action in c's state under
// the slot's service. c may belong to another slot's table (a state decoded
// by another System), whose memo answers for another service; its state is
// then asked directly.
func (sl *svcSlot) applicable(c *svcCell, task ioa.Task) bool {
	idx := sl.taskIndex(task)
	if idx < 0 {
		return false
	}
	if c.home != sl {
		_, ok := sl.sv.Enabled(c.st, task)
		return ok
	}
	memo := &c.transitions().apply[idx]
	if e := memo.Load(); e != nil {
		return e != notEnabled
	}
	_, ok := sl.sv.Enabled(c.st, task)
	if !ok {
		memo.Store(notEnabled)
	}
	return ok
}

// performed returns the memoized service task out of c. Tasks with no
// enabled action are reported as Service.Apply reports them and are not
// memoized.
func (c *svcCell) performed(task ioa.Task) (*svcEdge, error) {
	var memo *atomic.Pointer[svcEdge]
	if idx := c.home.taskIndex(task); idx >= 0 {
		memo = &c.transitions().apply[idx]
		if e := memo.Load(); e != nil && e != notEnabled {
			return e, nil
		}
	}
	ss, act, err := c.home.sv.Apply(c.st, task)
	if err != nil {
		return nil, err
	}
	e := &svcEdge{next: c.home.intern(ss), act: act}
	if memo != nil {
		memo.Store(e)
	}
	return e, nil
}
