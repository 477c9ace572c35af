package explore

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/ioa-lab/boosting/internal/codec"
	"github.com/ioa-lab/boosting/internal/system"
)

// The durable graph layout: one directory per graph, holding the two
// append-only data files the spill backend already writes (canonical
// fingerprints and delta-varint edge blocks), the index file with
// everything RAM-resident that reopening needs (per-vertex lengths,
// valence masks, predecessor links, roots, seal offsets, dictionaries),
// and the manifest that commits them. The manifest is written last, via
// write-temp-then-rename, so a directory either holds a complete
// committed graph or no graph at all — partial builds and crashes leave
// no manifest and are rebuilt from scratch.
const (
	manifestName  = "manifest.json"
	fpFileName    = "fingerprints.dat"
	edgeFileName  = "edges.dat"
	indexFileName = "index.dat"

	// manifestFormat is the on-disk format version. Bump on any layout
	// change: stale manifests are rejected, never reinterpreted. Format 1
	// carried a second, own-decision mask byte per vertex in index.dat.
	manifestFormat = 2
)

// ManifestError reports a durable graph directory that cannot be opened:
// missing or unreadable manifest, checksum or length mismatches, a stale
// format version, or an identity (shape / graph-ID / option-tuple)
// mismatch against what the caller expected. It wraps the underlying
// cause, when there is one, for errors.Is/As chains.
type ManifestError struct {
	// Dir is the graph directory.
	Dir string
	// Reason says what failed validation.
	Reason string
	// Err is the underlying cause (nil for pure mismatches).
	Err error
}

func (e *ManifestError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("explore: graph dir %s: %s: %v", e.Dir, e.Reason, e.Err)
	}
	return fmt.Sprintf("explore: graph dir %s: %s", e.Dir, e.Reason)
}

func (e *ManifestError) Unwrap() error { return e.Err }

// Manifest describes one committed durable graph. It records the graph's
// identity (the shape fingerprint of the system that can decode it, and
// the caller-supplied full graph identity), the build-option tuple that
// affects reopened semantics (symmetry reduction, witness links), the
// counts, and the lengths plus checksums that bind the data files to it.
type Manifest struct {
	// Format is the on-disk format version (manifestFormat).
	Format int `json:"format"`
	// Shape is the hex shape fingerprint (see ShapeFingerprint) of the
	// system the graph was built from: any system with an equal shape can
	// decode the stored states.
	Shape string `json:"shape"`
	// GraphID is the hex full identity of the build — the façade records
	// Checker.CanonicalFingerprint plus the root set here — or "" when the
	// builder supplied none.
	GraphID string `json:"graphId"`
	// Symmetry records whether the graph is the symmetry-reduced quotient.
	Symmetry bool `json:"symmetry"`
	// Witnesses records whether BFS-tree predecessor links were persisted.
	Witnesses bool `json:"witnesses"`
	// States, Edges, Roots and Levels are the graph counts.
	States int `json:"states"`
	Edges  int `json:"edges"`
	Roots  int `json:"roots"`
	Levels int `json:"levels"`
	// FingerprintBytes and EdgeBytes are the exact data-file lengths.
	FingerprintBytes int64 `json:"fingerprintBytes"`
	EdgeBytes        int64 `json:"edgeBytes"`
	// IndexBytes and IndexSum bind the index file: exact length and hex
	// 64-bit content hash.
	IndexBytes int64  `json:"indexBytes"`
	IndexSum   string `json:"indexSum"`
	// Checksum is the hex 64-bit hash of the manifest's own JSON encoding
	// with this field empty — tamper and truncation detection for the
	// manifest itself.
	Checksum string `json:"checksum"`
}

// sum64 hashes a byte slice with the store's deterministic fingerprint
// hash (first stream), rendered as the fixed-width hex used in manifests.
func sum64(b []byte) string {
	h, _ := fpHash(b)
	var raw [8]byte
	for i := range raw {
		raw[i] = byte(h >> (56 - 8*i))
	}
	return hex.EncodeToString(raw[:])
}

// seal marks the manifest's checksum: the hash of the encoding with the
// checksum field empty.
func (m *Manifest) seal() error {
	m.Checksum = ""
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	m.Checksum = sum64(body)
	return nil
}

// verifyChecksum recomputes the self-checksum and compares.
func (m *Manifest) verifyChecksum() (bool, error) {
	want := m.Checksum
	cp := *m
	cp.Checksum = ""
	body, err := json.Marshal(&cp)
	if err != nil {
		return false, err
	}
	return sum64(body) == want, nil
}

// ShapeFingerprint returns the encoding-compatibility identity of a
// system: process count and, per service in sorted index order, the
// index, type name, class, initial value and endpoint count. Two systems
// with equal shapes produce and parse interchangeable state encodings
// (ParseFingerprint splits on component counts), so any same-shape
// candidate can decode a reopened durable graph's states. Deliberately
// excluded are the dynamics-only knobs — resilience, silence policy and
// the process programs — which change the transition relation but not
// the state encoding. Equal shape therefore says nothing about whose G(C)
// a directory holds; ClassifyReopened is the one reader that serves a graph
// to a candidate other than its builder, and says when that is sound.
func ShapeFingerprint(sys *system.System) []byte {
	dst := append([]byte(nil), "boosting-shape-v1"...)
	dst = append(dst, '[')
	dst = codec.AppendInt(dst, len(sys.ProcessIDs()))
	for _, k := range sys.ServiceIDs() {
		sv := sys.Service(k)
		dst = append(dst, '(')
		dst = codec.AppendAtom(dst, sv.Index())
		dst = codec.AppendAtom(dst, sv.Type().Name)
		dst = codec.AppendInt(dst, int(sv.Type().Class))
		dst = codec.AppendAtom(dst, sv.Type().Initial)
		dst = codec.AppendInt(dst, len(sv.Endpoints()))
		dst = append(dst, ')')
	}
	dst = append(dst, ']')
	return dst
}

// ReadManifest reads and validates a durable graph directory's manifest:
// it must parse, carry the current format version, and pass its
// self-checksum. Identity checks (shape, graph ID) are the caller's.
// Every failure is a typed *ManifestError.
func ReadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, &ManifestError{Dir: dir, Reason: "read manifest", Err: err}
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, &ManifestError{Dir: dir, Reason: "parse manifest", Err: err}
	}
	if m.Format != manifestFormat {
		return nil, &ManifestError{Dir: dir,
			Reason: fmt.Sprintf("unsupported manifest format %d (want %d)", m.Format, manifestFormat)}
	}
	ok, err := m.verifyChecksum()
	if err != nil {
		return nil, &ManifestError{Dir: dir, Reason: "verify manifest checksum", Err: err}
	}
	if !ok {
		return nil, &ManifestError{Dir: dir, Reason: "manifest checksum mismatch"}
	}
	return &m, nil
}

// HasManifest reports whether dir holds a committed manifest file —
// without validating it. Callers distinguishing "nothing here yet, build"
// from "committed graph, open (and surface validation errors)" probe with
// this first.
func HasManifest(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// writeManifest commits a sealed manifest via write-temp-then-rename: the
// rename is the atomic commit point, so a crash anywhere before it leaves
// the directory without a (complete) manifest and the graph reads as
// absent.
func writeManifest(dir string, m *Manifest) error {
	if err := m.seal(); err != nil {
		return fmt.Errorf("explore: encode manifest: %w", err)
	}
	body, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("explore: encode manifest: %w", err)
	}
	body = append(body, '\n')
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("explore: write manifest: %w", err)
	}
	if _, err := f.Write(body); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("explore: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("explore: commit manifest: %w", err)
	}
	return nil
}

// graphFiles owns the file set of one spill-backed graph in one of two
// modes. Ephemeral (dir == ""): the files are created in the spill
// directory and unlinked immediately — today's temp-file discipline, the
// kernel reclaims them when the descriptors close. Durable: the files are
// created under the named graph directory and kept; the build later adds
// the index and commits the manifest (see commitDurable), after which
// OpenGraph reattaches them.
type graphFiles struct {
	dir     string // durable graph directory; "" in ephemeral mode
	durable bool
	fp      *os.File // canonical fingerprints, append-only
	edges   *os.File // delta-varint edge blocks, append-only
}

// newEphemeralGraphFiles creates the unlinked temp-file pair in spillDir
// ("" = the OS temp directory).
func newEphemeralGraphFiles(spillDir string) (*graphFiles, error) {
	if spillDir == "" {
		spillDir = os.TempDir()
	}
	f, err := os.CreateTemp(spillDir, "boosting-spill-*.fp")
	if err != nil {
		return nil, fmt.Errorf("explore: create spill file: %w", err)
	}
	// Unlink immediately: the open descriptor keeps the data alive, and the
	// kernel reclaims the space as soon as it closes. (Best-effort — on
	// filesystems that refuse to unlink open files the temp file simply
	// persists until external cleanup.)
	_ = os.Remove(f.Name())
	ef, err := os.CreateTemp(spillDir, "boosting-spill-*.edges")
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("explore: create edge spill file: %w", err)
	}
	_ = os.Remove(ef.Name())
	return &graphFiles{fp: f, edges: ef}, nil
}

// newDurableGraphFiles creates (or truncates) the named data files under
// dir. Any previously committed manifest is removed first, so a crash
// mid-rebuild cannot leave a valid manifest pointing at half-rewritten
// data — the commit protocol's invariant is "manifest implies complete".
func newDurableGraphFiles(dir string) (*graphFiles, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("explore: create graph dir: %w", err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("explore: clear stale manifest: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, fpFileName))
	if err != nil {
		return nil, fmt.Errorf("explore: create fingerprint file: %w", err)
	}
	ef, err := os.Create(filepath.Join(dir, edgeFileName))
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("explore: create edge file: %w", err)
	}
	return &graphFiles{dir: dir, durable: true, fp: f, edges: ef}, nil
}

// openGraphFiles reopens a committed directory's data files read-only and
// checks their lengths against the manifest.
func openGraphFiles(dir string, m *Manifest) (*graphFiles, error) {
	fail := func(reason string, err error) (*graphFiles, error) {
		return nil, &ManifestError{Dir: dir, Reason: reason, Err: err}
	}
	f, err := os.Open(filepath.Join(dir, fpFileName))
	if err != nil {
		return fail("open fingerprint file", err)
	}
	ef, err := os.Open(filepath.Join(dir, edgeFileName))
	if err != nil {
		_ = f.Close()
		return fail("open edge file", err)
	}
	gf := &graphFiles{dir: dir, durable: true, fp: f, edges: ef}
	for _, check := range []struct {
		name string
		f    *os.File
		want int64
	}{
		{fpFileName, f, m.FingerprintBytes},
		{edgeFileName, ef, m.EdgeBytes},
	} {
		info, err := check.f.Stat()
		if err != nil {
			_ = gf.close()
			return fail("stat "+check.name, err)
		}
		if info.Size() != check.want {
			_ = gf.close()
			return fail(fmt.Sprintf("%s is %d bytes, manifest records %d",
				check.name, info.Size(), check.want), nil)
		}
	}
	return gf, nil
}

// close releases both descriptors, reporting the first error.
func (g *graphFiles) close() error {
	err := g.fp.Close()
	if eerr := g.edges.Close(); err == nil {
		err = eerr
	}
	return err
}
