// Package system implements the complete system C of the paper
// (Section 2.2.3): the parallel composition of process automata P_i,
// canonical resilient services S_k, and canonical reliable registers S_r,
// with the internal communication actions hidden.
//
// Composition follows the I/O-automata rules: an invocation output a_{i,c}
// of P_i is simultaneously an input of S_c; a response output b_{i,c} of S_c
// is simultaneously an input of P_i; fail_i is an input of P_i and of every
// service with i among its endpoints. No two services, and no two processes,
// share an action; every action (except fail) has at most two participants.
//
// Registers are not a separate kind here: a canonical reliable register is a
// wait-free canonical atomic object of the read/write type (Section 2.1.3),
// built with service.NewRegister. The system tracks which services are
// registers only for reporting.
package system

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/ioa-lab/boosting/internal/codec"
	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/process"
	"github.com/ioa-lab/boosting/internal/service"
)

// Errors returned by system operations.
var (
	ErrDuplicateID    = errors.New("system: duplicate component index")
	ErrUnknownProcess = errors.New("system: unknown process")
	ErrUnknownService = errors.New("system: unknown service")
	ErrBadEndpoint    = errors.New("system: service endpoint is not a process")
	ErrNotApplicable  = errors.New("system: task not applicable")
)

// System is a complete system C: its processes and services, the derived
// task list, and the tables of interned component states every State of
// this System points into. The composition is fixed at New; the tables only
// grow, one cell per distinct component state the System has produced or
// decoded, and live as long as the System does. A System is safe for
// concurrent use.
//
// Component order is fixed at composition: processes in ascending id order,
// services in sorted index order. States store one component cell per slot
// of that order, and procIdx/svcIdx translate external ids to slots.
type System struct {
	procs   map[int]*process.Process
	procIDs []int
	procIdx map[int]int
	svcs    map[string]*service.Service
	svcIDs  []string
	svcIdx  map[string]int
	tasks   []ioa.Task
	taskIdx map[ioa.Task]int // first position in tasks, for callers that hold a task by value
	// table resolves tasks[t] once, at New, into slots and positions, and
	// numbers the actions the task performs (cells.go).
	table []taskInfo
	// procSlots and svcSlots hold, per slot, the automaton and its cell
	// table. Cells point back at their slot, so the slices are sized once
	// in New and never reallocated.
	procSlots []procSlot
	svcSlots  []svcSlot
}

// New composes processes and services into a complete system. Every service
// endpoint must be a process of the system.
func New(procs []*process.Process, svcs []*service.Service) (*System, error) {
	s := &System{
		procs: make(map[int]*process.Process, len(procs)),
		svcs:  make(map[string]*service.Service, len(svcs)),
	}
	for _, p := range procs {
		if _, dup := s.procs[p.ID()]; dup {
			return nil, fmt.Errorf("%w: process %d", ErrDuplicateID, p.ID())
		}
		s.procs[p.ID()] = p
		s.procIDs = append(s.procIDs, p.ID())
	}
	sort.Ints(s.procIDs)
	for _, sv := range svcs {
		if _, dup := s.svcs[sv.Index()]; dup {
			return nil, fmt.Errorf("%w: service %s", ErrDuplicateID, sv.Index())
		}
		for _, e := range sv.Endpoints() {
			if _, ok := s.procs[e]; !ok {
				return nil, fmt.Errorf("%w: service %s endpoint %d", ErrBadEndpoint, sv.Index(), e)
			}
		}
		s.svcs[sv.Index()] = sv
		s.svcIDs = append(s.svcIDs, sv.Index())
	}
	sort.Strings(s.svcIDs)
	s.procIdx = make(map[int]int, len(s.procIDs))
	s.procSlots = make([]procSlot, len(s.procIDs))
	for i, id := range s.procIDs {
		s.procIdx[id] = i
		s.procSlots[i].p = s.procs[id]
	}
	s.svcIdx = make(map[string]int, len(s.svcIDs))
	s.svcSlots = make([]svcSlot, len(s.svcIDs))
	for i, k := range s.svcIDs {
		s.svcIdx[k] = i
		s.svcSlots[i].sv = s.svcs[k]
	}

	// Fixed task enumeration: process tasks in id order, then service tasks
	// in index order. This is the round-robin order used by the Fig. 3 hook
	// construction.
	for _, id := range s.procIDs {
		s.tasks = append(s.tasks, ioa.ProcessTask(id))
	}
	for _, k := range s.svcIDs {
		s.tasks = append(s.tasks, s.svcs[k].Tasks()...)
	}
	if len(s.tasks) > math.MaxUint16 {
		return nil, fmt.Errorf("system: %d tasks, a Label addresses %d", len(s.tasks), math.MaxUint16)
	}
	s.table = make([]taskInfo, len(s.tasks))
	s.taskIdx = make(map[ioa.Task]int, len(s.tasks))
	for t, task := range s.tasks {
		if _, dup := s.taskIdx[task]; !dup {
			s.taskIdx[task] = t
		}
		info := &s.table[t]
		info.task, info.proc, info.svc = task, -1, -1
		info.acts.Store(new([]ioa.Action))
		if task.Kind != ioa.TaskCompute {
			info.proc = s.procIdx[task.Proc]
		}
		if task.Kind == ioa.TaskProcess {
			s.procSlots[info.proc].task, s.procSlots[info.proc].svcIdx = info, s.svcIdx
			continue
		}
		// A service's tasks are consecutive: its window grows by this one.
		info.svc = s.svcIdx[task.Service]
		sl := &s.svcSlots[info.svc]
		info.pos = len(sl.tasks)
		sl.tasks = s.table[t-info.pos : t+1]
	}
	return s, nil
}

// ProcessIDs returns the process indices (ascending). Shared slice — do not
// modify.
func (s *System) ProcessIDs() []int { return s.procIDs }

// ServiceIDs returns the service indices (sorted). Shared slice — do not
// modify.
func (s *System) ServiceIDs() []string { return s.svcIDs }

// Service returns the service with the given index, or nil.
func (s *System) Service(k string) *service.Service { return s.svcs[k] }

// Process returns the process with the given id, or nil.
func (s *System) Process(i int) *process.Process { return s.procs[i] }

// Tasks returns all tasks of the composed system, in the fixed round-robin
// order. Shared slice — do not modify.
func (s *System) Tasks() []ioa.Task { return s.tasks }

// CellCounts returns how many distinct component states the System has
// interned so far, per process slot and per service slot of the component
// order. The transition memo pays off when these stay far below the number
// of system states times components (EXPERIMENTS.md E32).
func (s *System) CellCounts() (procs, svcs []int) {
	procs = make([]int, len(s.procSlots))
	for i := range s.procSlots {
		procs[i] = s.procSlots[i].len()
	}
	svcs = make([]int, len(s.svcSlots))
	for i := range s.svcSlots {
		svcs[i] = s.svcSlots[i].len()
	}
	return procs, svcs
}

// State is a state of the composed system: one interned component cell per
// process and per service, index-addressed over the system's fixed component
// order (processes by ascending id, services by sorted index). A cell holds
// the immutable component state, its canonical encoding and the memoized
// transitions out of it, and is shared by every State in which that
// component is in that state — a successor differs from its parent in at
// most two cells (Section 2.2.3: every non-fail action has at most two
// participants), so a transition copies the pointer slices it touches and
// shares the rest. Cell identity is an implementation detail: it never
// reaches fingerprints, IDs or reports, and two States are the same state
// exactly when their fingerprints are equal.
type State struct {
	procs []*procCell
	svcs  []*svcCell
}

// Proc returns the process component in the given slot of the component
// order.
func (st State) Proc(slot int) process.State { return st.procs[slot].st }

// Svc returns the service component in the given slot of the component
// order.
func (st State) Svc(slot int) service.State { return st.svcs[slot].st }

// ProcEncoding returns the canonical encoding of the process component in
// the given slot — the bytes Proc(slot).AppendFingerprint would write,
// computed once when the component state was interned.
func (st State) ProcEncoding(slot int) string { return st.procs[slot].enc }

// SvcEncoding is ProcEncoding for the service component in the given slot.
func (st State) SvcEncoding(slot int) string { return st.svcs[slot].enc }

// Equal reports whether st and other are the same state of one component
// layout, i.e. whether their fingerprints are equal, by comparing the
// cached component encodings.
func (st State) Equal(other State) bool {
	if len(st.procs) != len(other.procs) || len(st.svcs) != len(other.svcs) {
		return false
	}
	for i, c := range st.procs {
		if c != other.procs[i] && c.enc != other.procs[i].enc {
			return false
		}
	}
	for i, c := range st.svcs {
		if c != other.svcs[i] && c.enc != other.svcs[i].enc {
			return false
		}
	}
	return true
}

// InitialState returns the start state of C.
func (s *System) InitialState() State {
	st := State{
		procs: make([]*procCell, len(s.procSlots)),
		svcs:  make([]*svcCell, len(s.svcSlots)),
	}
	for i := range s.procSlots {
		sl := &s.procSlots[i]
		st.procs[i] = sl.intern(sl.p.InitialState())
	}
	for i := range s.svcSlots {
		sl := &s.svcSlots[i]
		st.svcs[i] = sl.intern(sl.sv.InitialState())
	}
	return st
}

// StateOf assembles a State from component states in the system's fixed
// component order, interning each one (one encode and one table lookup per
// component). The component values are retained by the cells they create;
// callers must not modify them afterwards. Lengths must match the system's
// component counts.
func (s *System) StateOf(procs []process.State, svcs []service.State) (State, error) {
	if len(procs) != len(s.procSlots) || len(svcs) != len(s.svcSlots) {
		return State{}, fmt.Errorf("system: StateOf got %d/%d components, want %d/%d",
			len(procs), len(svcs), len(s.procSlots), len(s.svcSlots))
	}
	st := State{
		procs: make([]*procCell, len(procs)),
		svcs:  make([]*svcCell, len(svcs)),
	}
	for i := range procs {
		st.procs[i] = s.procSlots[i].intern(procs[i])
	}
	for i := range svcs {
		st.svcs[i] = s.svcSlots[i].intern(svcs[i])
	}
	return st, nil
}

// Permuted returns π(st) for a renaming π that moves component states whole:
// st's process component of slot i lands in slot to[i], and every service
// keeps its slot and value while endpoint i's queues and failed mark become
// endpoint π(i)'s. It is the symmetry layer's constructor for pure specs and
// works on cells: a moved process component is found in the target slot's
// table by its cached encoding, a relabelled service by the encoding
// assembled from its cell's endpoint index, so a renaming onto states the
// System has already seen encodes no component and builds no service.State.
// to must be a permutation of the process slots.
func (s *System) Permuted(st State, to []int) State {
	rename := func(id int) int {
		if slot := s.slotOf(id); slot >= 0 {
			return s.procIDs[to[slot]]
		}
		return id
	}
	out := State{procs: make([]*procCell, len(st.procs)), svcs: st.svcs}
	for slot, c := range st.procs {
		out.procs[to[slot]] = s.procSlots[to[slot]].adopt(c)
	}
	shared := true // out.svcs is st's until the first service that changes
	for i, c := range st.svcs {
		r := s.svcSlots[i].renamed(c, rename)
		if r == c {
			continue
		}
		if shared {
			out.svcs, shared = slices.Clone(st.svcs), false
		}
		out.svcs[i] = r
	}
	return out
}

// slotOf returns the slot of process id in the component order, or -1:
// procIdx without the hashing, for Permuted, which asks several times per
// endpoint per service. Ids are almost always 0..n-1, their own slots.
func (s *System) slotOf(id int) int {
	if id >= 0 && id < len(s.procIDs) && s.procIDs[id] == id {
		return id
	}
	return slices.Index(s.procIDs, id)
}

// CompareEndpoints orders process a's share of the service in slot svc
// against process b's — invocation queue, response queue, failed mark — as
// service.Endpoints.Compare defines, from the cell's cached endpoint index.
func (st State) CompareEndpoints(svc, a, b int) int {
	c := st.svcs[svc]
	return c.endpoints().Compare(c.enc, a, b)
}

// ProcState returns the component state of process id, or the zero state if
// id is not a process of the system.
func (s *System) ProcState(st State, id int) process.State {
	idx, ok := s.procIdx[id]
	if !ok {
		return process.State{}
	}
	return st.procs[idx].st
}

// SvcState returns the component state of service k, or the zero state if k
// is not a service of the system.
func (s *System) SvcState(st State, k string) service.State {
	idx, ok := s.svcIdx[k]
	if !ok {
		return service.State{}
	}
	return st.svcs[idx].st
}

// Fingerprint returns the canonical encoding of the system state, composed
// from the component fingerprints in fixed component order.
func (s *System) Fingerprint(st State) string {
	return string(s.AppendFingerprint(nil, st))
}

// AppendFingerprint appends the canonical encoding of st to dst and returns
// the extended buffer — byte-identical to Fingerprint, and to concatenating
// the component automata's own AppendFingerprint output. This is the hot
// path of graph exploration: callers reuse one buffer per goroutine
// (buf = sys.AppendFingerprint(buf[:0], st)) and intern the bytes. Each
// component was encoded once, when its cell was interned, so fingerprinting
// a state copies the cached encodings and allocates nothing. The encoding
// does not depend on which System's cells st points into.
func (s *System) AppendFingerprint(dst []byte, st State) []byte {
	for _, c := range st.procs {
		dst = append(dst, c.enc...)
	}
	for _, c := range st.svcs {
		dst = append(dst, c.enc...)
	}
	return dst
}

// AppendKey appends the process-local identity of st to dst: the dense index
// of its cell in every slot of the component order, four little-endian bytes
// each. Within one System equal keys mean equal fingerprints and the reverse,
// because a slot holds one cell per encoding and cells of another slot or
// another System are re-homed first; st must have this System's component
// layout. The bytes depend on the order in which this System happened to
// intern component states, so they may key an in-memory index and nothing
// that outlives the process or is shown to anyone.
func (s *System) AppendKey(dst []byte, st State) []byte {
	for i, c := range st.procs {
		dst = binary.LittleEndian.AppendUint32(dst, s.procSlots[i].adopt(c).idx)
	}
	for i, c := range st.svcs {
		dst = binary.LittleEndian.AppendUint32(dst, s.svcSlots[i].adopt(c).idx)
	}
	return dst
}

// AppendSuccKey appends AppendKey of st.With(d) given key, AppendKey of st: a
// copy with at most two indices overwritten. d's cells are this System's own.
func (s *System) AppendSuccKey(dst, key []byte, d Delta) []byte {
	n := len(dst)
	dst = append(dst, key...)
	if d.proc != nil {
		binary.LittleEndian.PutUint32(dst[n+4*d.procSlot:], d.proc.idx)
	}
	if d.svc != nil {
		binary.LittleEndian.PutUint32(dst[n+4*(len(s.procSlots)+d.svcSlot):], d.svc.idx)
	}
	return dst
}

// Init delivers the external input init(v)_i.
func (s *System) Init(st State, i int, v string) (State, ioa.Action, error) {
	slot, ok := s.procIdx[i]
	if !ok {
		return st, ioa.Action{}, fmt.Errorf("%w: %d", ErrUnknownProcess, i)
	}
	sl := &s.procSlots[slot]
	next := st.With(Delta{proc: sl.intern(sl.p.OnInit(st.procs[slot].st, v)), procSlot: slot})
	return next, ioa.Action{Type: ioa.ActInit, Proc: i, Payload: v}, nil
}

// Fail delivers the input fail_i: it fails P_i and is simultaneously an
// input of every service with endpoint i (Section 2.2.3).
func (s *System) Fail(st State, i int) (State, ioa.Action, error) {
	slot, ok := s.procIdx[i]
	if !ok {
		return st, ioa.Action{}, fmt.Errorf("%w: %d", ErrUnknownProcess, i)
	}
	sl := &s.procSlots[slot]
	next := st.With(Delta{proc: sl.intern(sl.p.Fail(st.procs[slot].st)), procSlot: slot})
	svcs := make([]*svcCell, len(st.svcs))
	copy(svcs, st.svcs)
	for idx := range s.svcSlots {
		if ssl := &s.svcSlots[idx]; ssl.sv.HasEndpoint(i) {
			svcs[idx] = ssl.intern(ssl.sv.Fail(svcs[idx].st, i))
		}
	}
	next.svcs = svcs
	return next, ioa.Action{Type: ioa.ActFail, Proc: i}, nil
}

// Delta is a successor as its difference from the parent: the process cell
// and the service cell the step replaced, nil where the component did not
// move. A non-fail action has at most two participants (Section 2.2.3), one
// process and one service. The cells are the stepping System's own.
type Delta struct {
	proc              *procCell
	svc               *svcCell
	procSlot, svcSlot int
}

// With returns the successor d describes: st with d's cells in place, sharing
// every slice d does not touch.
func (st State) With(d Delta) State {
	if d.proc != nil {
		st.procs = slices.Clone(st.procs)
		st.procs[d.procSlot] = d.proc
	}
	if d.svc != nil {
		st.svcs = slices.Clone(st.svcs)
		st.svcs[d.svcSlot] = d.svc
	}
	return st
}

// Label names the action a step performed: the task's index in Tasks() and
// the action's number among the distinct actions that task has performed in
// this System, in the order their memo edges were published. Like a cell
// index, an action number depends on who stepped what first: it means
// something only to this System's Resolve and must never be shown, persisted
// or ordered by.
type Label struct {
	Task, Act uint16
}

// Resolve returns the task and the action a label Step returned stands for.
func (s *System) Resolve(l Label) (ioa.Task, ioa.Action) {
	return s.tasks[l.Task], (*s.table[l.Task].acts.Load())[l.Act]
}

// Step runs task Tasks()[t] from st and answers applicability and transition
// together: ok = false if the task has no enabled action in st (Lemma 1's
// applicability), otherwise the successor as a Delta and the action as a
// Label. It is the one stepping implementation; Apply, Applicable and Enabled
// wrap it. The automata are deterministic (Section 3.1: one transition per
// task per state), so each participant's transition is looked up in the memo
// of its cell and computed by the component automaton only the first time
// that cell takes it: on a memo hit Step builds no State, copies no Action
// and allocates nothing. st may point into another System's cells (a state
// read from one candidate's graph and run under a same-shape variant): the
// participants are re-homed into this System's tables first, so the
// transition taken is always this System's.
func (s *System) Step(st State, t int) (d Delta, l Label, ok bool, err error) {
	info := &s.table[t]
	l.Task = uint16(t)
	if info.svc < 0 {
		// The process task is always applicable (dummy step at worst). If
		// it emits an invocation, the target service takes the matching
		// input transition in the same step.
		have := st.procs[info.proc]
		e, err := s.procSlots[info.proc].adopt(have).stepped()
		if err != nil {
			return Delta{}, l, true, err
		}
		if e.next != have {
			d.proc, d.procSlot = e.next, info.proc
		}
		if e.svc >= 0 {
			d.svc, err = s.svcSlots[e.svc].adopt(st.svcs[e.svc]).invoked(e.act.Proc, e.act.Payload)
			if err != nil {
				return Delta{}, l, true, fmt.Errorf("P%d invoking %s: %w", e.act.Proc, e.act.Service, err)
			}
			d.svcSlot = e.svc
		}
		l.Act = e.num
		return d, l, true, nil
	}
	have := st.svcs[info.svc]
	e, err := s.svcSlots[info.svc].adopt(have).performed(info.pos)
	if err != nil || e == notEnabled {
		return Delta{}, l, false, err
	}
	if e.next != have {
		d.svc, d.svcSlot = e.next, info.svc
	}
	if e.act.Type == ioa.ActRespond {
		// A real response b_{i,k} of an i-output task: P_i takes the
		// matching input transition in the same step.
		have := st.procs[info.proc]
		if pc := s.procSlots[info.proc].adopt(have).responded(e.act.Service, e.act.Payload); pc != have {
			d.proc, d.procSlot = pc, info.proc
		}
	}
	l.Act = e.num
	return d, l, true, nil
}

// AppendCandidates appends to dst, in task order, the index of every task
// Step might answer ok from st: every process task, and every service task
// but those its participant cell's memo already knows to have no enabled
// action. It runs no transition and no component code, so Step stays the
// one place a task is taken: a task it leaves out is exactly one Step would
// answer ok = false, err = nil, and one it lists may still be refused there.
// A cell st holds from another slot or System is read through the slot's
// cell of the same encoding; with none, every task of its service is listed.
func (s *System) AppendCandidates(dst []int, st State) []int {
	t := 0
	for ; t < len(s.table) && s.table[t].svc < 0; t++ {
		dst = append(dst, t)
	}
	for i := range s.svcSlots {
		sl := &s.svcSlots[i]
		c := st.svcs[i]
		if c.home != sl {
			c = sl.get(c.enc)
		}
		var off uint64
		if c != nil {
			if m := c.memo.Load(); m != nil {
				off = m.off.Load()
			}
		}
		for pos := range sl.tasks {
			if pos >= 64 || off&(1<<pos) == 0 {
				dst = append(dst, t+pos)
			}
		}
		t += len(sl.tasks)
	}
	return dst
}

// stepTask is Step for a task given by value; a task the System does not
// have is not applicable.
func (s *System) stepTask(st State, task ioa.Task) (Delta, Label, bool, error) {
	if t, ok := s.taskIdx[task]; ok {
		return s.Step(st, t)
	}
	return Delta{}, Label{}, false, nil
}

// Enabled returns the action the given task would perform in st, with
// ok = false if the task is not applicable.
func (s *System) Enabled(st State, task ioa.Task) (ioa.Action, bool) {
	_, l, ok, err := s.stepTask(st, task)
	if !ok || err != nil {
		return ioa.Action{}, false
	}
	_, act := s.Resolve(l)
	return act, true
}

// Applicable reports whether the task has an enabled action in st
// (the applicability notion of Lemma 1).
func (s *System) Applicable(st State, task ioa.Task) bool {
	_, _, ok, err := s.stepTask(st, task)
	return ok || err != nil
}

// Apply runs one task of the composed system, performing the matched
// transitions of all participants of the resulting action: Step's delta put
// into st, Step's label resolved. A task that is not applicable is refused by
// kind — an unknown process or service, or, for a service's task, the error
// Service.Apply gives it.
func (s *System) Apply(st State, task ioa.Task) (State, ioa.Action, error) {
	d, l, ok, err := s.stepTask(st, task)
	if err == nil && !ok {
		err = fmt.Errorf("%w: %v", ErrNotApplicable, task)
		switch task.Kind {
		case ioa.TaskProcess:
			err = fmt.Errorf("%w: %d", ErrUnknownProcess, task.Proc)
		case ioa.TaskPerform, ioa.TaskCompute, ioa.TaskOutput:
			if svc, known := s.svcIdx[task.Service]; !known {
				err = fmt.Errorf("%w: %s", ErrUnknownService, task.Service)
			} else if _, _, refused := s.svcSlots[svc].sv.Apply(st.svcs[svc].st, task); refused != nil {
				err = refused
			}
		}
	}
	if err != nil {
		return st, ioa.Action{}, err
	}
	_, act := s.Resolve(l)
	return st.With(d), act, nil
}

// Participants returns the names of the automata participating in the action
// the task would take from st ("P<i>" for processes, the service index for
// services), or nil if the task is not applicable. Per the paper, every
// non-fail action has at most two participants.
func (s *System) Participants(st State, task ioa.Task) []string {
	act, ok := s.Enabled(st, task)
	if !ok {
		return nil
	}
	switch act.Type {
	case ioa.ActInvoke, ioa.ActRespond:
		return []string{procName(act.Proc), act.Service}
	case ioa.ActPerform, ioa.ActDummyPerform, ioa.ActDummyOutput:
		return []string{act.Service}
	case ioa.ActCompute, ioa.ActDummyCompute:
		return []string{act.Service}
	case ioa.ActDecide, ioa.ActProcStep, ioa.ActProcDummy:
		return []string{procName(act.Proc)}
	default:
		return nil
	}
}

func procName(i int) string { return fmt.Sprintf("P%d", i) }

// Decisions returns the recorded decision value of every process that has
// one, keyed by process id.
func (s *System) Decisions(st State) map[int]string {
	out := map[int]string{}
	for i, id := range s.procIDs {
		if ps := st.procs[i].st; ps.HasDec {
			out[id] = ps.Decided
		}
	}
	return out
}

// FailedProcesses returns the ids of failed processes, ascending.
func (s *System) FailedProcesses(st State) []int {
	var out []int
	for i, id := range s.procIDs {
		if st.procs[i].st.Failed {
			out = append(out, id)
		}
	}
	return out
}

// LiveProcesses returns the ids of non-failed processes, ascending.
func (s *System) LiveProcesses(st State) []int {
	out := make([]int, 0, len(s.procIDs))
	for i, id := range s.procIDs {
		if !st.procs[i].st.Failed {
			out = append(out, id)
		}
	}
	return out
}

// FailedSet returns the failed processes as an IntSet.
func (s *System) FailedSet(st State) codec.IntSet {
	return codec.NewIntSet(s.FailedProcesses(st)...)
}
