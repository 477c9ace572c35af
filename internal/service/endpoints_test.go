package service

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"github.com/ioa-lab/boosting/internal/codec"
)

// renameStates covers what a renaming has to carry: several queued items,
// items that look like encodings, endpoints on one side only, endpoints with
// a failure mark and nothing queued, empty queues that must not be encoded,
// and endpoint ids whose decimal order differs from their numeric order.
func renameStates() []State {
	return []State{
		{Val: "v", Failed: codec.NewIntSet()},
		{Val: ""},
		{
			Val:    "0",
			Inv:    bufs(map[int][]string{0: {"init(0)"}, 2: {"init(1)", "read"}, 3: {}}),
			Resp:   bufs(map[int][]string{1: {"decide(0)"}, 2: {"ack"}}),
			Failed: codec.NewIntSet(),
		},
		{
			Val:    "[1:a]",
			Inv:    bufs(map[int][]string{2: {"1:a]"}, 10: {"1:a", "]"}, 11: {""}}),
			Resp:   bufs(map[int][]string{10: {"[]"}, 1: nil}),
			Failed: codec.NewIntSet(3, 10, 2),
		},
		{Val: "x", Failed: codec.NewIntSet(1)},
	}
}

func renamings() []map[int]int {
	return []map[int]int{
		{},
		{0: 1, 1: 0},
		{0: 2, 2: 3, 3: 0},
		{2: 10, 10: 2},
		{1: 11, 11: 3, 3: 10, 10: 1},
		{0: 12, 12: 0, 2: 1, 1: 2},
	}
}

func renameBy(m map[int]int) func(int) int {
	return func(i int) int {
		if v, ok := m[i]; ok {
			return v
		}
		return i
	}
}

// TestAppendRenamedMatchesRenamed: the encoding assembled from the indexed
// pieces is the encoding of the re-keyed state, and Moved says exactly when
// it differs from the original.
func TestAppendRenamedMatchesRenamed(t *testing.T) {
	for si, st := range renameStates() {
		enc := st.Fingerprint()
		eps, err := IndexEndpoints(enc)
		if err != nil {
			t.Fatalf("state %d: %v", si, err)
		}
		for ri, m := range renamings() {
			rename := renameBy(m)
			want := st.Renamed(rename).Fingerprint()
			if got := string(eps.AppendRenamed(nil, enc, rename)); got != want {
				t.Errorf("state %d renaming %d: assembled\n%q\nre-keyed state encodes\n%q", si, ri, got, want)
			}
			if got := eps.Moved(rename); got != (want != enc) {
				t.Errorf("state %d renaming %d: Moved = %v, encoding changed = %v", si, ri, got, want != enc)
			}
			if back, _, err := ParseStatePrefix(want); err != nil || back.Fingerprint() != want {
				t.Errorf("state %d renaming %d: renamed encoding does not round-trip: %v", si, ri, err)
			}
		}
	}
}

// TestRenamedSharesWhatDoesNotMove: a buffer family no queue of which moves
// is the original value, not a copy, and the queues of one that moves are
// shared, not copied.
func TestRenamedSharesWhatDoesNotMove(t *testing.T) {
	st := renameStates()[2]
	got := st.Renamed(renameBy(map[int]int{0: 3, 3: 0})) // Resp holds 1 and 2 only
	if &got.Resp.qs[0] != &st.Resp.qs[0] {
		t.Error("unmoved response buffers were copied")
	}
	if len(got.Inv.Queue(3)) != 1 || len(st.Inv.Queue(3)) != 0 {
		t.Error("moved invocation buffers were not re-keyed")
	}
	if &got.Inv.Queue(3)[0] != &st.Inv.Queue(0)[0] {
		t.Error("a moved queue was copied")
	}
}

// shareKey is the reference for Compare: the endpoint's pieces re-encoded
// from the State and concatenated.
func shareKey(st State, id int) []byte {
	key := codec.AppendList(nil, st.Inv.Queue(id))
	key = codec.AppendList(key, st.Resp.Queue(id))
	if st.Failed.Has(id) {
		return append(key, 'F')
	}
	return append(key, '.')
}

func TestEndpointsCompareMatchesConcatenatedKey(t *testing.T) {
	ids := []int{0, 1, 2, 3, 10, 11, 12}
	for si, st := range renameStates() {
		enc := st.Fingerprint()
		eps, err := IndexEndpoints(enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range ids {
			for _, b := range ids {
				want := bytes.Compare(shareKey(st, a), shareKey(st, b))
				if got := eps.Compare(enc, a, b); got != want {
					t.Errorf("state %d: Compare(%d, %d) = %d, concatenated keys compare %d", si, a, b, got, want)
				}
			}
		}
	}
}

func TestIndexEndpointsRejectsMalformed(t *testing.T) {
	good := renameStates()[3].Fingerprint()
	if _, err := IndexEndpoints(good); err != nil {
		t.Fatal(err)
	}
	huge := State{Inv: bufs(map[int][]string{math.MaxInt32 + 1: {"a"}})}.Fingerprint()
	bad := []string{
		"", "x", "[", good[1:], good[:len(good)-1], good + "]",
		"[2:0:2:<>2:<>2:{}", "[2:0:2:<>2:<>2:{}}", "[2:0:2:<)2:<>2:{}]", "[2:0:2:<>2:<>2:{)]",
		"[2:0:3:<(>2:<>2:{}]", "[2:0:11:<(1:02:[]]>2:<>2:{}]", "[2:0:2:<>2:<>5:{1:x}]",
		huge,
	}
	for _, enc := range bad {
		if _, err := IndexEndpoints(enc); !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("IndexEndpoints(%q) = %v, want an error wrapping codec.ErrMalformed", enc, err)
		}
	}
}
