package explore

import "testing"

// FuzzDecodeIndex feeds arbitrary bytes to the index decoder OpenGraph runs
// on a directory's index.dat. Nothing may panic, every refusal is an error
// with nothing decoded, and a decoded index holds no more elements than its
// bytes can encode: a task or action takes at least 4 bytes, a vertex 3, a
// root 1 and a seal 2. The committed seeds are the index files of
// TestDurableBytesPinned's rows and truncations of them.
func FuzzDecodeIndex(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(indexMagic))
	f.Fuzz(func(t *testing.T, buf []byte) {
		dec, err := decodeIndex(buf)
		if err != nil {
			if dec != nil {
				t.Fatalf("refused with %v, yet decoded %+v", err, dec)
			}
			return
		}
		n := len(dec.lens)
		if len(dec.elens) != n || len(dec.masks) != n {
			t.Fatalf("%d fingerprint lengths, %d edge-block lengths, %d masks", n, len(dec.elens), len(dec.masks))
		}
		if min := 4*(len(dec.tasks)+len(dec.acts)) + 3*n + len(dec.roots) + 2*len(dec.seals); min > len(buf) {
			t.Fatalf("decoded %d tasks, %d actions, %d vertices, %d roots and %d seals from %d bytes",
				len(dec.tasks), len(dec.acts), n, len(dec.roots), len(dec.seals), len(buf))
		}
		for _, r := range dec.roots {
			if int(r) >= n {
				t.Fatalf("root %d of %d vertices", r, n)
			}
		}
	})
}
