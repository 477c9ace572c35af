package explore

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/system"
)

// indexMagic heads the index file; it shares the manifest's format
// version, so a layout change invalidates both together.
const indexMagic = "boosting-graph-index"

// appendString encodes a length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendTask encodes one dictionary task.
func appendTask(dst []byte, t ioa.Task) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.Kind))
	dst = binary.AppendVarint(dst, int64(t.Proc))
	dst = appendString(dst, t.Service)
	return appendString(dst, t.Global)
}

// appendAction encodes one dictionary action.
func appendAction(dst []byte, a ioa.Action) []byte {
	dst = binary.AppendUvarint(dst, uint64(a.Type))
	dst = binary.AppendVarint(dst, int64(a.Proc))
	dst = appendString(dst, a.Service)
	return appendString(dst, a.Payload)
}

// encodeIndex serializes everything a reopen needs beyond the two data
// files: the task/action dictionaries the edge blocks reference, the
// per-vertex fingerprint and edge-block lengths (offsets are cumulative —
// both files are append-only in ID order), the final valence masks, the
// optional predecessor links (dictionary-indexed), the roots and the
// per-level seal offsets.
func encodeIndex(g *Graph, s *spillStore) []byte {
	n := s.Len()
	buf := make([]byte, 0, 64+8*n)
	buf = append(buf, indexMagic...)
	buf = binary.AppendUvarint(buf, manifestFormat)

	// Every BFS-tree edge is an edge SetSuccs has seen by now; a store fed
	// links of other labels still gets them into the dictionaries before the
	// dictionaries are written.
	for _, link := range s.predTable.list {
		if link.to != noState {
			s.dictLabel(link.Label)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.tasks)))
	for _, t := range s.tasks {
		buf = appendTask(buf, t)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.acts)))
	for _, a := range s.acts {
		buf = appendAction(buf, a)
	}

	buf = binary.AppendUvarint(buf, uint64(n))
	for i := 0; i < n; i++ {
		buf = binary.AppendUvarint(buf, uint64(s.lens[i]))
		buf = binary.AppendUvarint(buf, uint64(s.elens[i]))
		buf = append(buf, g.masks[i])
	}

	if s.predTable.keep {
		buf = append(buf, 1)
		for _, link := range s.predTable.list {
			if link.to == noState {
				buf = append(buf, 0)
				continue
			}
			ti, ai := s.dictLabel(link.Label)
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(link.to))
			buf = binary.AppendUvarint(buf, uint64(ti))
			buf = binary.AppendUvarint(buf, uint64(ai))
		}
	} else {
		buf = append(buf, 0)
	}

	buf = binary.AppendUvarint(buf, uint64(len(g.roots)))
	for _, r := range g.roots {
		buf = binary.AppendUvarint(buf, uint64(r))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.seals)))
	for _, m := range s.seals {
		buf = binary.AppendUvarint(buf, uint64(m.states))
		buf = binary.AppendUvarint(buf, uint64(m.edgeOff))
	}
	return buf
}

// indexReader decodes the index buffer with positioned errors.
type indexReader struct {
	buf []byte
	pos int
	err error
}

func (r *indexReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("corrupt index at byte %d: %s", r.pos, what)
	}
}

func (r *indexReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.buf[r.pos:])
	if k <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.pos += k
	return v
}

func (r *indexReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Varint(r.buf[r.pos:])
	if k <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.pos += k
	return v
}

func (r *indexReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("truncated")
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *indexReader) string() string {
	n := int(r.uvarint())
	if r.err != nil {
		return ""
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.fail("string past end")
		return ""
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s
}

// count validates a decoded element count against the bytes that remain:
// every element occupies at least min bytes, so a count the buffer cannot
// possibly hold is corruption, caught before it sizes an allocation.
func (r *indexReader) count(min int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64((len(r.buf)-r.pos)/min+1) {
		r.fail(fmt.Sprintf("implausible count %d", n))
		return 0
	}
	return int(n)
}

// decodedIndex is the parsed index file.
type decodedIndex struct {
	tasks []ioa.Task
	acts  []ioa.Action
	lens  []uint32
	elens []uint32
	masks []uint8
	preds predTable // keep == false when witnesses were not persisted
	roots []StateID
	seals []sealMark
}

func decodeIndex(buf []byte) (*decodedIndex, error) {
	if len(buf) < len(indexMagic) || string(buf[:len(indexMagic)]) != indexMagic {
		return nil, fmt.Errorf("index magic missing")
	}
	r := &indexReader{buf: buf, pos: len(indexMagic)}
	if v := r.uvarint(); r.err == nil && v != manifestFormat {
		return nil, fmt.Errorf("index format %d (want %d)", v, manifestFormat)
	}
	out := &decodedIndex{}
	nt := r.count(4)
	out.tasks = make([]ioa.Task, 0, nt)
	for i := 0; i < nt && r.err == nil; i++ {
		t := ioa.Task{Kind: ioa.TaskKind(r.uvarint()), Proc: int(r.varint())}
		t.Service = r.string()
		t.Global = r.string()
		out.tasks = append(out.tasks, t)
	}
	na := r.count(4)
	out.acts = make([]ioa.Action, 0, na)
	for i := 0; i < na && r.err == nil; i++ {
		a := ioa.Action{Type: ioa.ActionType(r.uvarint()), Proc: int(r.varint())}
		a.Service = r.string()
		a.Payload = r.string()
		out.acts = append(out.acts, a)
	}
	n := r.count(3)
	out.lens = make([]uint32, 0, n)
	out.elens = make([]uint32, 0, n)
	out.masks = make([]uint8, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out.lens = append(out.lens, uint32(r.uvarint()))
		out.elens = append(out.elens, uint32(r.uvarint()))
		out.masks = append(out.masks, r.byte())
	}
	if r.byte() == 1 {
		// A reopened graph's links are labelled by dictionary index.
		tasks, acts := out.tasks, out.acts
		out.preds = predTable{keep: true, list: make([]packedEdge, 0, n),
			resolve: func(l system.Label) (ioa.Task, ioa.Action) { return tasks[l.Task], acts[l.Act] }}
		for i := 0; i < n && r.err == nil; i++ {
			if r.byte() == 0 {
				out.preds.add(packedEdge{to: noState})
				continue
			}
			from, ti, ai := r.uvarint(), r.uvarint(), r.uvarint()
			if r.err == nil && (ti >= uint64(min(len(out.tasks), math.MaxUint16+1)) || ai >= uint64(min(len(out.acts), math.MaxUint16+1))) {
				r.fail("predecessor dictionary index out of range")
				break
			}
			out.preds.add(packedEdge{to: StateID(from), Label: system.Label{Task: uint16(ti), Act: uint16(ai)}})
		}
	}
	nr := r.count(1)
	out.roots = make([]StateID, 0, nr)
	for i := 0; i < nr && r.err == nil; i++ {
		id := r.uvarint()
		if r.err == nil && id >= uint64(n) {
			r.fail("root id out of range")
			break
		}
		out.roots = append(out.roots, StateID(id))
	}
	ns := r.count(2)
	out.seals = make([]sealMark, 0, ns)
	for i := 0; i < ns && r.err == nil; i++ {
		out.seals = append(out.seals, sealMark{states: int(r.uvarint()), edgeOff: int64(r.uvarint())})
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(buf) {
		return nil, fmt.Errorf("%d trailing bytes after index", len(buf)-r.pos)
	}
	return out, nil
}

// commitDurable finishes a durable build: flush and sync the data files,
// write the index, then commit the manifest via write-temp-then-rename.
// A no-op for ephemeral builds. Called after the valence fixpoint, so the
// persisted masks are final.
func commitDurable(g *Graph, opt BuildOptions) error {
	if opt.GraphDir == "" {
		return nil
	}
	s, ok := g.store.(*spillStore)
	if !ok {
		return fmt.Errorf("explore: durable commit: store is not the spill backend")
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("explore: durable commit: flush fingerprints: %w", err)
	}
	if err := s.file.Sync(); err != nil {
		return fmt.Errorf("explore: durable commit: sync fingerprints: %w", err)
	}
	if err := s.efile.Sync(); err != nil {
		return fmt.Errorf("explore: durable commit: sync edges: %w", err)
	}
	idx := encodeIndex(g, s)
	idxPath := filepath.Join(opt.GraphDir, indexFileName)
	if err := writeFileSync(idxPath, idx); err != nil {
		return fmt.Errorf("explore: durable commit: write index: %w", err)
	}
	m := &Manifest{
		Format:           manifestFormat,
		Shape:            hex.EncodeToString(ShapeFingerprint(g.sys)),
		GraphID:          hex.EncodeToString(opt.GraphID),
		Symmetry:         opt.Symmetry != nil,
		Witnesses:        !opt.NoWitnesses,
		States:           s.Len(),
		Edges:            g.edges,
		Roots:            len(g.roots),
		Levels:           len(s.seals),
		FingerprintBytes: s.wOff,
		EdgeBytes:        s.flushedOff,
		IndexBytes:       int64(len(idx)),
		IndexSum:         sum64(idx),
	}
	if err := writeManifest(opt.GraphDir, m); err != nil {
		return err
	}
	g.manifest = m
	g.graphDir = opt.GraphDir
	return nil
}

// writeFileSync writes a file and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// OpenOptions constrains OpenGraph's manifest validation beyond the
// always-on checks (format version, checksums, file lengths, shape).
type OpenOptions struct {
	// GraphID, when non-nil, must match the manifest's recorded full
	// identity byte-for-byte — the exact-reopen mode. nil skips the check:
	// a shape-validated open, whose graph is the builder's G(C) whatever
	// candidate sys is.
	GraphID []byte
	// RequireWitnesses rejects graphs persisted without predecessor links.
	RequireWitnesses bool
}

// OpenGraph validates a committed durable graph directory and reattaches
// it as a read-only graph without exploring a state: manifest format and
// self-checksum, data-file lengths, index checksum, and the shape
// fingerprint of sys against the manifest's. The returned graph is
// per-ID and per-edge identical to the one the durable build produced —
// same StateIDs, fingerprints, edges, valences, roots and witness links —
// and its states decode under sys (any same-shape candidate). It is the
// builder's G(C): without opt.GraphID nothing here ties its transitions to
// sys, so it is sys's graph only when the two candidates have the same
// failure-free transition relation (see ClassifyReopened). Close it with
// CloseGraphStore like any spill-backed graph. All validation failures are
// typed *ManifestError values.
func OpenGraph(sys *system.System, dir string, opt OpenOptions) (*Graph, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if want := hex.EncodeToString(ShapeFingerprint(sys)); m.Shape != want {
		return nil, &ManifestError{Dir: dir,
			Reason: "shape mismatch: the graph was built for a structurally different system"}
	}
	if opt.GraphID != nil && m.GraphID != hex.EncodeToString(opt.GraphID) {
		return nil, &ManifestError{Dir: dir,
			Reason: "graph identity mismatch: the directory holds a different candidate's graph (build-option tuple or roots differ)"}
	}
	if opt.RequireWitnesses && !m.Witnesses {
		return nil, &ManifestError{Dir: dir,
			Reason: "graph was persisted without witness predecessor links"}
	}
	idx, err := os.ReadFile(filepath.Join(dir, indexFileName))
	if err != nil {
		return nil, &ManifestError{Dir: dir, Reason: "read index", Err: err}
	}
	if int64(len(idx)) != m.IndexBytes {
		return nil, &ManifestError{Dir: dir,
			Reason: fmt.Sprintf("index is %d bytes, manifest records %d", len(idx), m.IndexBytes)}
	}
	if got := sum64(idx); got != m.IndexSum {
		return nil, &ManifestError{Dir: dir, Reason: "index checksum mismatch"}
	}
	dec, err := decodeIndex(idx)
	if err != nil {
		return nil, &ManifestError{Dir: dir, Reason: "decode index", Err: err}
	}
	if len(dec.lens) != m.States || len(dec.roots) != m.Roots {
		return nil, &ManifestError{Dir: dir, Reason: "index counts disagree with manifest"}
	}
	files, err := openGraphFiles(dir, m)
	if err != nil {
		return nil, err
	}
	s, err := reattachSpillStore(sys, files, m, dec)
	if err != nil {
		_ = files.close()
		return nil, &ManifestError{Dir: dir, Reason: "reattach store", Err: err}
	}
	return &Graph{
		sys:      sys,
		store:    s,
		roots:    dec.roots,
		edges:    m.Edges,
		masks:    dec.masks,
		manifest: m,
		graphDir: dir,
	}, nil
}

// reattachSpillStore rebuilds a read-only spillStore over a committed
// file set: offsets are reconstructed from the per-vertex lengths (both
// data files are append-only in ID order), and the dedup index — hash
// buckets plus second-stream hashes — is rebuilt by streaming the
// fingerprint file once, which doubles as an integrity pass over every
// stored byte.
func reattachSpillStore(sys *system.System, files *graphFiles, m *Manifest, dec *decodedIndex) (*spillStore, error) {
	n := len(dec.lens)
	s := &spillStore{
		sys:       sys,
		hash:      fpHash,
		buckets:   make(map[uint64][]StateID, n),
		hash2:     make([]uint64, 0, n),
		offs:      make([]int64, n),
		lens:      dec.lens,
		predTable: dec.preds,
		files:     files,
		file:      files.fp,
		readonly:  true,
		batch:     spillBatch,
		// pendingBase at Len(): no vertex is resident, every read preads.
		pendingBase: n,
	}
	s.bufs.New = func() any { b := make([]byte, 0, 256); return &b }
	var off int64
	for i, l := range dec.lens {
		s.offs[i] = off
		off += int64(l)
	}
	if off != m.FingerprintBytes {
		return nil, fmt.Errorf("fingerprint lengths sum to %d, file has %d", off, m.FingerprintBytes)
	}
	// Adjacency face: sealed throughout, EdgesFrom always preads.
	s.spillEdges.owner = s
	s.spillEdges.efile = files.edges
	s.spillEdges.eoffs = make([]int64, n)
	s.spillEdges.elens = dec.elens
	s.spillEdges.tasks = dec.tasks
	s.spillEdges.acts = dec.acts
	s.spillEdges.seals = dec.seals
	s.spillEdges.ebufs.New = func() any { b := make([]byte, 0, 256); return &b }
	var eoff int64
	for i, l := range dec.elens {
		s.spillEdges.eoffs[i] = eoff
		eoff += int64(l)
	}
	if eoff != m.EdgeBytes {
		return nil, fmt.Errorf("edge-block lengths sum to %d, file has %d", eoff, m.EdgeBytes)
	}
	s.spillEdges.flushedOff = eoff
	s.wOff = off

	// Rebuild the dedup index: one sequential pass over the fingerprint
	// file. Graph.Lookup serves a reopened graph too (ClassifyReopened
	// resolves the candidate's roots through it), so the buckets must be
	// live.
	br := bufio.NewReaderSize(files.fp, 256<<10)
	buf := make([]byte, 0, 256)
	for i := 0; i < n; i++ {
		l := int(dec.lens[i])
		if cap(buf) < l {
			buf = make([]byte, l)
		}
		buf = buf[:l]
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("read fingerprint of state %d: %w", i, err)
		}
		h1, h2 := fpHash(buf)
		s.buckets[h1] = append(s.buckets[h1], StateID(i))
		s.hash2 = append(s.hash2, h2)
	}
	return s, nil
}

// BuildOrReopenGraph is BuildGraph with the durable fast path: when the
// graph directory already holds a committed graph whose full identity
// (GraphID), symmetry flag and witness flag all match the requested
// build exactly, the graph is reopened without exploring a state;
// otherwise — no manifest, identity mismatch, damaged files — it is
// rebuilt from scratch into the directory, replacing whatever was there.
// A reopen is attempted only when opt.GraphID is non-nil: without a full
// identity there is no sound way to tell a matching graph from a stale
// one. Ephemeral builds (GraphDir == "") pass straight through.
func BuildOrReopenGraph(sys *system.System, roots []system.State, opt BuildOptions) (*Graph, error) {
	if g := tryReopen(sys, opt); g != nil {
		return g, nil
	}
	return BuildGraph(sys, roots, opt)
}

// tryReopen attempts the durable fast path, returning nil on any
// mismatch or damage so the caller falls back to a full build.
func tryReopen(sys *system.System, opt BuildOptions) *Graph {
	if opt.GraphDir == "" || opt.GraphID == nil || !HasManifest(opt.GraphDir) {
		return nil
	}
	// The symmetry and witness flags are compared against the manifest
	// rather than folded into GraphID: the canonical identity is
	// deliberately invariant under engine options, but a quotient graph
	// is not the full graph and a witness-less graph cannot serve
	// witness paths, so either mismatch forces a rebuild.
	m, err := ReadManifest(opt.GraphDir)
	if err != nil || m.Symmetry != (opt.Symmetry != nil) || m.Witnesses != !opt.NoWitnesses {
		return nil
	}
	g, err := OpenGraph(sys, opt.GraphDir, OpenOptions{GraphID: opt.GraphID})
	if err != nil {
		return nil
	}
	return g
}

// GraphManifest returns the manifest of a durable graph — one built with
// GraphDir or reopened via OpenGraph — with ok == false for ephemeral
// graphs. The returned manifest is shared, not copied; treat it as
// read-only.
func GraphManifest(g *Graph) (*Manifest, bool) {
	if g == nil || g.manifest == nil {
		return nil, false
	}
	return g.manifest, true
}

// GraphDirOf returns the durable directory a graph was built into or
// reopened from ("" for ephemeral graphs).
func GraphDirOf(g *Graph) string {
	if g == nil {
		return ""
	}
	return g.graphDir
}
