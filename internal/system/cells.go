package system

import (
	"fmt"
	"math"
	"slices"
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
// inside this process and this System, and only for equality. The same goes
// for action numbers: a task numbers the distinct actions it has performed
// 0, 1, 2, … as the memo edges carrying them are published (taskInfo.number).
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
	p      *process.Process
	task   *taskInfo      // the slot's process task
	svcIdx map[string]int // the System's service slots by index, for invocations
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

// procEdge is the memoized process task out of a cell: the action, its number
// among the task's actions and, for an invocation, the invoked service's slot.
type procEdge struct {
	next *procCell
	act  ioa.Action
	num  uint16
	svc  int // -1 unless act is an invocation
}

// respKey identifies a response input b_{i,c} by service index and payload.
type respKey struct {
	svc, resp string
}

// svcSlot is one service position of the component order.
type svcSlot struct {
	sv    *service.Service
	tasks []taskInfo // the slot's window of the task table, in sv.Tasks() order
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
	apply  []atomic.Pointer[svcEdge] // memo of Service.Apply, by position in Tasks()
	invoke table[invKey, svcCell]    // memo of Service.Invoke
	// off has bit pos set once apply[pos] holds notEnabled, for positions
	// below 64, so AppendCandidates can leave those tasks out with one load.
	off atomic.Uint64
}

// svcEdge is one memoized service task out of a cell.
type svcEdge struct {
	next *svcCell
	act  ioa.Action
	num  uint16 // act's number among the task's actions
}

// notEnabled is the memo entry of a task with no enabled action in the
// cell's state. It records only the applicability answer: System.Apply on
// such a task still asks the service, so the error is reported as
// Service.Apply reports it.
var notEnabled = new(svcEdge)

// invKey identifies an invocation input a_{i,k}.
type invKey struct {
	proc int
	inv  string
}

// taskInfo is one row of the task table System.New resolves from Tasks():
// where the task's participants sit in the component order, and the distinct
// actions the task has performed so far, numbered in publication order.
type taskInfo struct {
	task ioa.Task
	proc int // slot of the stepping process or of the endpoint a service task serves; -1 for a compute task
	svc  int // service slot; -1 for a process task
	pos  int // position in the service's Tasks()

	mu   sync.Mutex                   // serializes number
	acts atomic.Pointer[[]ioa.Action] // replaced, never written in place: readers take no lock
}

// number returns act's number among the task's actions, assigning the next one
// on first sight. Racing publishers of one memo edge get the same number.
func (t *taskInfo) number(act ioa.Action) (uint16, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	acts := *t.acts.Load()
	if i := slices.Index(acts, act); i >= 0 {
		return uint16(i), nil
	}
	if len(acts) > math.MaxUint16 {
		return 0, fmt.Errorf("system: task %v performed more than %d distinct actions", t.task, len(acts))
	}
	acts = append(acts[:len(acts):len(acts)], act)
	t.acts.Store(&acts)
	return uint16(len(acts) - 1), nil
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
	m := &svcMemo{apply: make([]atomic.Pointer[svcEdge], len(c.home.tasks))}
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

// stepped returns the memoized process task out of c. An invocation of a
// service the System does not have is an error, not memoized.
func (c *procCell) stepped() (*procEdge, error) {
	if e := c.step.Load(); e != nil {
		return e, nil
	}
	sl := c.home
	ps, act := sl.p.Step(c.st)
	svc := -1
	if act.Type == ioa.ActInvoke {
		var ok bool
		if svc, ok = sl.svcIdx[act.Service]; !ok {
			return nil, fmt.Errorf("%w: %s (invoked by P%d)", ErrUnknownService, act.Service, sl.p.ID())
		}
	}
	num, err := sl.task.number(act)
	if err != nil {
		return nil, err
	}
	e := &procEdge{next: sl.intern(ps), act: act, num: num, svc: svc}
	c.step.Store(e)
	return e, nil
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

// performed returns the memoized service task at position pos of the slot's
// Tasks() out of c: notEnabled when the task has no enabled action in c's
// state, an error — not memoized — for any other refusal of Service.Apply.
func (c *svcCell) performed(pos int) (*svcEdge, error) {
	m := c.transitions()
	memo := &m.apply[pos]
	if e := memo.Load(); e != nil {
		return e, nil
	}
	sv, info := c.home.sv, &c.home.tasks[pos]
	if _, enabled := sv.Enabled(c.st, info.task); !enabled {
		memo.Store(notEnabled)
		if pos < 64 {
			m.off.Or(1 << pos)
		}
		return notEnabled, nil
	}
	ss, act, err := sv.Apply(c.st, info.task)
	if err != nil {
		return nil, err
	}
	num, err := info.number(act)
	if err != nil {
		return nil, err
	}
	e := &svcEdge{next: c.home.intern(ss), act: act, num: num}
	memo.Store(e)
	return e, nil
}
