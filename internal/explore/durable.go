package explore

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

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
// per-vertex fingerprint lengths (fpLens) and edge-block lengths (offsets
// are cumulative — both files hold one record per vertex in ID order), the
// final valence masks, the roots and the per-level seal offsets.
func encodeIndex(g *Graph, s *spillEdges, fpLens []uint32) []byte {
	n := g.store.Len()
	buf := make([]byte, 0, 64+4*n)
	buf = append(buf, indexMagic...)
	buf = binary.AppendUvarint(buf, manifestFormat)

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
		buf = binary.AppendUvarint(buf, uint64(fpLens[i]))
		buf = binary.AppendUvarint(buf, uint64(s.elens[i]))
		buf = append(buf, g.masks[i])
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

// commitDurable finishes a durable build: write and sync the fingerprint
// file, sync the edge file, write the index, then commit the manifest via
// write-temp-then-rename. A no-op for ephemeral builds. Called after the
// valence fixpoint, so the persisted masks are final.
func commitDurable(g *Graph, opt BuildOptions) error {
	if opt.GraphDir == "" {
		return nil
	}
	s, ok := g.adj.(*spillEdges)
	if !ok {
		return fmt.Errorf("explore: durable commit: store is not the spill backend")
	}
	fpLens, fpBytes, err := writeFingerprints(g, filepath.Join(opt.GraphDir, fpFileName))
	if err != nil {
		return fmt.Errorf("explore: durable commit: write fingerprints: %w", err)
	}
	if err := s.efile.Sync(); err != nil {
		return fmt.Errorf("explore: durable commit: sync edges: %w", err)
	}
	idx := encodeIndex(g, s, fpLens)
	idxPath := filepath.Join(opt.GraphDir, indexFileName)
	if err := writeFileSync(idxPath, idx); err != nil {
		return fmt.Errorf("explore: durable commit: write index: %w", err)
	}
	m := &Manifest{
		Format:           manifestFormat,
		Shape:            hex.EncodeToString(ShapeFingerprint(g.sys)),
		GraphID:          hex.EncodeToString(opt.GraphID),
		Symmetry:         opt.Symmetry != nil,
		States:           g.store.Len(),
		Edges:            g.edges,
		Roots:            len(g.roots),
		Levels:           len(s.seals),
		FingerprintBytes: fpBytes,
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

// writeFingerprints writes the canonical fingerprint of every vertex, in ID
// order and without framing, to path and fsyncs it. It returns each one's
// length — the index records them — and the total.
func writeFingerprints(g *Graph, path string) (lens []uint32, total int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, 0, err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	lens = make([]uint32, g.store.Len())
	var buf []byte
	for id := range lens {
		st, _ := g.store.State(StateID(id))
		buf = g.sys.AppendFingerprint(buf[:0], st)
		if _, err = w.Write(buf); err != nil {
			break
		}
		lens[id] = uint32(len(buf))
		total += int64(len(buf))
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return lens, total, err
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
}

// OpenGraph validates a committed durable graph directory and reattaches
// it as a read-only graph without exploring a state: manifest format and
// self-checksum, data-file lengths, index checksum, the shape fingerprint
// of sys against the manifest's, and — while every stored fingerprint is
// decoded under sys (any same-shape candidate) into the vertex store — that
// each one parses and names a state no earlier vertex holds. The returned
// graph is per-ID and per-edge identical to the one the durable build
// produced — same StateIDs, fingerprints, edges, valences and roots, and so
// the same witness paths. It is the builder's G(C): without opt.GraphID nothing here ties its transitions to
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
	fp, edges, err := openGraphFiles(dir, m)
	if err != nil {
		return nil, err
	}
	g, err := reattach(sys, fp, edges, m, dec)
	_ = fp.Close()
	if err != nil {
		_ = edges.Close()
		return nil, &ManifestError{Dir: dir, Reason: "reattach graph", Err: err}
	}
	g.graphDir = dir
	return g, nil
}

// reattach rebuilds a committed graph: the vertex store by one sequential
// decode pass over the fingerprint file — each fingerprint is parsed under
// sys, keyed and interned, and must be the next fresh vertex, so a damaged or
// duplicated record is an error here and never a later read — and the spill
// adjacency, sealed throughout, from the index's block lengths over the edge
// file.
func reattach(sys *system.System, fp, edges *os.File, m *Manifest, dec *decodedIndex) (*Graph, error) {
	var fpEnd, edgeEnd int64
	for i := range dec.lens {
		fpEnd += int64(dec.lens[i])
		edgeEnd += int64(dec.elens[i])
	}
	if fpEnd != m.FingerprintBytes {
		return nil, fmt.Errorf("fingerprint lengths sum to %d, file has %d", fpEnd, m.FingerprintBytes)
	}
	if edgeEnd != m.EdgeBytes {
		return nil, fmt.Errorf("edge-block lengths sum to %d, file has %d", edgeEnd, m.EdgeBytes)
	}
	store := newDenseStore(sys)
	br := bufio.NewReaderSize(fp, 256<<10)
	var buf, key []byte
	for i, l := range dec.lens {
		buf = slices.Grow(buf[:0], int(l))[:l]
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("read fingerprint of state %d: %w", i, err)
		}
		st, err := sys.ParseFingerprint(string(buf))
		if err != nil {
			return nil, fmt.Errorf("decode state %d: %w", i, err)
		}
		key = store.AppendKey(key[:0], st)
		if id, fresh := store.Intern(key, st); !fresh {
			return nil, fmt.Errorf("state %d repeats state %d", i, id)
		}
	}

	// Adjacency: sealed throughout, EdgesFrom always preads.
	a := &spillEdges{
		vertices:   store,
		efile:      edges,
		eoffs:      make([]int64, len(dec.elens)),
		elens:      dec.elens,
		flushedOff: edgeEnd,
		seals:      dec.seals,
		tasks:      dec.tasks,
		acts:       dec.acts,
		decoded:    int64(len(dec.lens)),
	}
	a.ebufs.New = func() any { b := make([]byte, 0, 256); return &b }
	var off int64
	for i, l := range dec.elens {
		a.eoffs[i] = off
		off += int64(l)
	}
	return &Graph{
		sys:      sys,
		store:    store,
		adj:      a,
		roots:    dec.roots,
		edges:    m.Edges,
		masks:    dec.masks,
		manifest: m,
	}, nil
}

// BuildOrReopenGraph is BuildGraph with the durable fast path: when the
// graph directory already holds a committed graph whose full identity
// (GraphID) and symmetry flag match the requested build exactly, the graph is reopened without exploring a state;
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
	// The symmetry flag is compared against the manifest rather than folded
	// into GraphID: the canonical identity is deliberately invariant under
	// engine options, but a quotient graph is not the full graph, so a
	// mismatch forces a rebuild.
	m, err := ReadManifest(opt.GraphDir)
	if err != nil || m.Symmetry != (opt.Symmetry != nil) {
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
