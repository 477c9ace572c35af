package service

import (
	"errors"
	"testing"

	"github.com/ioa-lab/boosting/internal/codec"
)

// TestServiceParseStatePrefixRoundTrip: decode(encode(st)) re-encodes
// byte-identically across value, buffer and failed-set shapes, including
// endpoints whose decimal order differs from numeric order (10 < 2
// lexicographically).
func TestServiceParseStatePrefixRoundTrip(t *testing.T) {
	states := []State{
		{Val: "", Failed: codec.NewIntSet()},
		{Val: "v0", Inv: bufs(map[int][]string{0: {"init:1"}}), Failed: codec.NewIntSet()},
		{
			Val:    "decided:1",
			Inv:    bufs(map[int][]string{2: {"a", "b"}, 10: {"c"}}),
			Resp:   bufs(map[int][]string{0: {"resp:0", ""}}),
			Failed: codec.NewIntSet(1, 10),
		},
	}
	for i, st := range states {
		enc := st.Fingerprint()
		got, rest, err := ParseStatePrefix(enc + "MORE")
		if err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		if rest != "MORE" {
			t.Fatalf("state %d: remainder %q", i, rest)
		}
		if re := got.Fingerprint(); re != enc {
			t.Errorf("state %d round trip:\n%q\n%q", i, enc, re)
		}
		if !got.Failed.Equal(st.Failed) {
			t.Errorf("state %d: failed set %v, want %v", i, got.Failed, st.Failed)
		}
		if got.Val != st.Val {
			t.Errorf("state %d: val %q, want %q", i, got.Val, st.Val)
		}
	}
}

// TestServiceParseStatePrefixMalformed: truncations, non-canonical endpoint
// keys and empty buffer entries (which the encoder never writes) must error
// with codec.ErrMalformed.
func TestServiceParseStatePrefixMalformed(t *testing.T) {
	good := (State{Val: "v", Inv: bufs(map[int][]string{1: {"x"}}), Failed: codec.NewIntSet(0)}).Fingerprint()
	malformed := []string{
		"",
		"{" + good[1:],
		good[:len(good)-2],
		// Buffer map with a non-canonical endpoint key "01".
		"[3:1:v15:<(2:015:[1:x])>2:<>2:{}]",
		// Buffer map with an empty queue entry for endpoint 1.
		"[3:1:v11:<(1:12:[])>2:<>2:{}]",
		// Buffer map with endpoints out of canonical order (2 before 10).
		"[3:1:v27:<(1:25:[1:a])(2:105:[1:b])>2:<>2:{}]",
		// Failed set out of canonical order.
		"[3:1:v2:<>2:<>8:{1:11:0}]",
	}
	for i, s := range malformed {
		if _, _, err := ParseStatePrefix(s); !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("input %d (%q): error %v, want ErrMalformed", i, s, err)
		}
	}
	// Failed set holding a non-integer atom: rejected, though the codec-level
	// set decoder reports the strconv failure rather than ErrMalformed.
	if _, _, err := ParseStatePrefix("[3:1:v2:<>2:<>5:{1:a}]"); err == nil {
		t.Error("non-integer failed-set member decoded")
	}
}
