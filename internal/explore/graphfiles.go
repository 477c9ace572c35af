package explore

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"github.com/ioa-lab/boosting/internal/codec"
	"github.com/ioa-lab/boosting/internal/system"
)

// The durable graph layout: one directory per graph, holding two data
// files — the delta-varint edge blocks the spill backend appends during the
// build, and the canonical fingerprints of the vertices, written once in ID
// order at commit — the index file with everything else reopening needs
// (per-vertex lengths, valence masks, roots, seal offsets, dictionaries),
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
	// carried a second, own-decision mask byte per vertex in index.dat;
	// format 2, BFS-tree predecessor links, which WitnessPath now derives
	// from the edges.
	manifestFormat = 3
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
// the caller-supplied full graph identity), the build option that affects
// reopened semantics (symmetry reduction), the counts, and the lengths plus checksums that bind the data files to it.
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

// sum64 hashes a byte slice with 64-bit FNV-1a, rendered big-endian as the
// fixed-width hex used in manifests.
func sum64(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
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

// newEphemeralEdgeFile creates the spill backend's edge file in spillDir
// ("" = the OS temp directory) and unlinks it at once: the open descriptor
// keeps the data alive, and the kernel reclaims the space as soon as it
// closes. (Best-effort — on filesystems that refuse to unlink open files the
// temp file simply persists until external cleanup.)
func newEphemeralEdgeFile(spillDir string) (*os.File, error) {
	if spillDir == "" {
		spillDir = os.TempDir()
	}
	f, err := os.CreateTemp(spillDir, "boosting-spill-*.edges")
	if err != nil {
		return nil, fmt.Errorf("explore: create edge spill file: %w", err)
	}
	_ = os.Remove(f.Name())
	return f, nil
}

// newDurableEdgeFile creates (or truncates) edges.dat under dir. Any
// previously committed manifest is removed first, so a crash mid-rebuild
// cannot leave a valid manifest pointing at half-rewritten data — the commit
// protocol's invariant is "manifest implies complete".
func newDurableEdgeFile(dir string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("explore: create graph dir: %w", err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("explore: clear stale manifest: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, edgeFileName))
	if err != nil {
		return nil, fmt.Errorf("explore: create edge file: %w", err)
	}
	return f, nil
}

// openGraphFiles reopens a committed directory's two data files read-only
// and checks their lengths against the manifest.
func openGraphFiles(dir string, m *Manifest) (fp, edges *os.File, err error) {
	fail := func(reason string, err error) (*os.File, *os.File, error) {
		if fp != nil {
			_ = fp.Close()
		}
		if edges != nil {
			_ = edges.Close()
		}
		return nil, nil, &ManifestError{Dir: dir, Reason: reason, Err: err}
	}
	if fp, err = os.Open(filepath.Join(dir, fpFileName)); err != nil {
		return fail("open fingerprint file", err)
	}
	if edges, err = os.Open(filepath.Join(dir, edgeFileName)); err != nil {
		return fail("open edge file", err)
	}
	for _, check := range []struct {
		name string
		f    *os.File
		want int64
	}{
		{fpFileName, fp, m.FingerprintBytes},
		{edgeFileName, edges, m.EdgeBytes},
	} {
		info, err := check.f.Stat()
		if err != nil {
			return fail("stat "+check.name, err)
		}
		if info.Size() != check.want {
			return fail(fmt.Sprintf("%s is %d bytes, manifest records %d",
				check.name, info.Size(), check.want), nil)
		}
	}
	return fp, edges, nil
}
