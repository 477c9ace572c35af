package explore

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDurableManifestRoundTrip is the manifest round-trip property:
// seal → writeManifest → ReadManifest is the identity on every field,
// for a deterministic sweep of pseudo-random manifests.
func TestDurableManifestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed)) //lint:boostvet-ignore determinism — fixed-seed property sweep, identical on every run
	hexdig := "0123456789abcdef"
	randHex := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(hexdig[rng.Intn(16)])
		}
		return b.String()
	}
	dir := t.TempDir()
	for i := 0; i < 50; i++ {
		in := Manifest{
			Format:           manifestFormat,
			Shape:            randHex(2 * rng.Intn(40)),
			GraphID:          randHex(2 * rng.Intn(40)),
			Symmetry:         rng.Intn(2) == 1,
			States:           rng.Intn(1 << 20),
			Edges:            rng.Intn(1 << 22),
			Roots:            rng.Intn(16),
			Levels:           rng.Intn(64),
			FingerprintBytes: rng.Int63n(1 << 40),
			EdgeBytes:        rng.Int63n(1 << 40),
			IndexBytes:       rng.Int63n(1 << 30),
			IndexSum:         randHex(16),
		}
		if err := writeManifest(dir, &in); err != nil {
			t.Fatalf("write #%d: %v", i, err)
		}
		out, err := ReadManifest(dir)
		if err != nil {
			t.Fatalf("read #%d: %v", i, err)
		}
		if *out != in {
			t.Fatalf("round trip #%d:\n  wrote %+v\n  read  %+v", i, in, *out)
		}
	}
}

// TestDurableManifestCorruption drives ReadManifest through the failure
// table: every corruption is reported as a typed *ManifestError with a
// recognizable reason, never a silent success or an untyped error.
func TestDurableManifestCorruption(t *testing.T) {
	valid := func(t *testing.T) (string, *Manifest) {
		t.Helper()
		dir := t.TempDir()
		m := &Manifest{Format: manifestFormat, Shape: "ab", GraphID: "cd",
			States: 7, Edges: 9, Roots: 1, IndexSum: "00"}
		if err := writeManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		return dir, m
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string, m *Manifest)
		reason  string
	}{
		{
			name:    "missing",
			corrupt: func(t *testing.T, dir string, _ *Manifest) { mustRemove(t, filepath.Join(dir, manifestName)) },
			reason:  "read manifest",
		},
		{
			name: "truncated",
			corrupt: func(t *testing.T, dir string, _ *Manifest) {
				path := filepath.Join(dir, manifestName)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, raw[:len(raw)/2], 0o666); err != nil {
					t.Fatal(err)
				}
			},
			reason: "parse manifest",
		},
		{
			name: "checksum mismatch",
			corrupt: func(t *testing.T, dir string, m *Manifest) {
				// Re-marshal with a tampered field but the original
				// checksum: valid JSON, wrong self-hash.
				m.States++
				raw, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o666); err != nil {
					t.Fatal(err)
				}
			},
			reason: "manifest checksum mismatch",
		},
		{
			name: "stale format",
			corrupt: func(t *testing.T, dir string, m *Manifest) {
				// A future format version, correctly self-checksummed:
				// rejected on version, not on integrity.
				m.Format = manifestFormat + 1
				if err := m.seal(); err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o666); err != nil {
					t.Fatal(err)
				}
			},
			reason: "unsupported manifest format",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, m := valid(t)
			if _, err := ReadManifest(dir); err != nil {
				t.Fatalf("pristine manifest rejected: %v", err)
			}
			tc.corrupt(t, dir, m)
			_, err := ReadManifest(dir)
			var merr *ManifestError
			if !errors.As(err, &merr) {
				t.Fatalf("want *ManifestError, got %T: %v", err, err)
			}
			if !strings.Contains(merr.Reason, tc.reason) {
				t.Errorf("reason %q does not mention %q", merr.Reason, tc.reason)
			}
			if merr.Dir != dir {
				t.Errorf("Dir = %q, want %q", merr.Dir, dir)
			}
		})
	}
}

func mustRemove(t *testing.T, path string) {
	t.Helper()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
}
