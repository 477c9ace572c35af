package codec

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestAtomRoundTrip(t *testing.T) {
	cases := []string{"", "a", "hello world", "with:colon", "with]bracket", "12:34", "héllo"}
	for _, c := range cases {
		enc := Atom(c)
		got, rest, err := ParseAtom(enc)
		if err != nil {
			t.Fatalf("ParseAtom(%q): %v", enc, err)
		}
		if got != c || rest != "" {
			t.Errorf("Atom round trip: got (%q, %q), want (%q, \"\")", got, rest, c)
		}
	}
}

func TestAtomRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		got, rest, err := ParseAtom(Atom(s))
		return err == nil && got == s && rest == ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAtomInjective(t *testing.T) {
	f := func(a, b string) bool {
		if a == b {
			return Atom(a) == Atom(b)
		}
		return Atom(a) != Atom(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseAtomMalformed(t *testing.T) {
	for _, bad := range []string{"", "abc", "-1:x", "5:ab", "x:y"} {
		if _, _, err := ParseAtom(bad); err == nil {
			t.Errorf("ParseAtom(%q): want error", bad)
		}
	}
}

func TestIntRoundTrip(t *testing.T) {
	f := func(v int) bool {
		got, rest, err := ParseInt(Int(v))
		return err == nil && got == v && rest == ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestListRoundTrip(t *testing.T) {
	cases := [][]string{{}, {""}, {"a"}, {"a", "b", "a"}, {"x:y", "[z]", "{w}"}}
	for _, c := range cases {
		got, err := ParseList(List(c))
		if err != nil {
			t.Fatalf("ParseList(List(%v)): %v", c, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("List round trip: got %v, want %v", got, c)
		}
	}
}

func TestListRoundTripProperty(t *testing.T) {
	f := func(items []string) bool {
		if items == nil {
			items = []string{}
		}
		got, err := ParseList(List(items))
		return err == nil && reflect.DeepEqual(got, items)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestListOrderSensitive(t *testing.T) {
	if List([]string{"a", "b"}) == List([]string{"b", "a"}) {
		t.Error("List must preserve order")
	}
}

func TestSetCanonical(t *testing.T) {
	a := Set([]string{"b", "a", "b", "c"})
	b := Set([]string{"c", "b", "a"})
	if a != b {
		t.Errorf("Set not canonical: %q vs %q", a, b)
	}
	got, err := ParseSet(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("ParseSet: got %v", got)
	}
}

func TestSetCanonicalProperty(t *testing.T) {
	f := func(items []string, seed int) bool {
		// Any permutation plus duplication encodes identically.
		shuffled := make([]string, 0, 2*len(items))
		shuffled = append(shuffled, items...)
		shuffled = append(shuffled, items...)
		for i := range shuffled {
			j := (i*7 + seed) % len(shuffled)
			if j < 0 {
				j = -j
			}
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		return Set(items) == Set(shuffled)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPairRoundTrip(t *testing.T) {
	f := func(a, b string) bool {
		ga, gb, err := ParsePair(Pair(a, b))
		return err == nil && ga == a && gb == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapRoundTrip(t *testing.T) {
	cases := []map[string]string{
		{},
		{"a": "1"},
		{"a": "1", "b": "2", "weird:key": "[v]"},
	}
	for _, c := range cases {
		got, err := ParseMap(Map(c))
		if err != nil {
			t.Fatalf("ParseMap: %v", err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("Map round trip: got %v, want %v", got, c)
		}
	}
}

func TestMapCanonicalProperty(t *testing.T) {
	f := func(m map[string]string) bool {
		if m == nil {
			m = map[string]string{}
		}
		got, err := ParseMap(Map(m))
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNestedEncodings(t *testing.T) {
	inner := List([]string{"x", "y"})
	outer := List([]string{inner, Set([]string{"a"}), Pair("k", "v")})
	got, err := ParseList(outer)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != inner {
		t.Errorf("nested list corrupted: %q", got[0])
	}
}

func TestIntSetBasics(t *testing.T) {
	s := NewIntSet(3, 1, 2, 3)
	if s.Len() != 3 {
		t.Errorf("Len: got %d, want 3", s.Len())
	}
	if !s.Has(1) || s.Has(4) {
		t.Error("Has wrong")
	}
	s2 := s.With(4)
	if s.Has(4) {
		t.Error("With mutated receiver")
	}
	if !s2.Has(4) {
		t.Error("With did not add")
	}
	s3 := s2.Without(1)
	if s2.Has(1) != true || s3.Has(1) {
		t.Error("Without wrong")
	}
	if got := NewIntSet(2, 1).Union(NewIntSet(3)).String(); got != "{1,2,3}" {
		t.Errorf("Union/String: got %s", got)
	}
}

func TestIntSetFingerprintCanonical(t *testing.T) {
	a := NewIntSet(1, 2, 3).Fingerprint()
	b := NewIntSet(3, 2, 1).Fingerprint()
	if a != b {
		t.Errorf("fingerprints differ: %q vs %q", a, b)
	}
	parsed, err := ParseIntSet(a)
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(NewIntSet(1, 2, 3)) {
		t.Errorf("ParseIntSet: got %s", parsed)
	}
}

func TestIntSetSubsetEqual(t *testing.T) {
	a := NewIntSet(1, 2)
	b := NewIntSet(1, 2, 3)
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Error("SubsetOf wrong")
	}
	if !a.Equal(NewIntSet(2, 1)) || a.Equal(b) {
		t.Error("Equal wrong")
	}
}

func TestIntSetMembersSorted(t *testing.T) {
	got := NewIntSet(5, 1, 9, 0).Members()
	if !reflect.DeepEqual(got, []int{0, 1, 5, 9}) {
		t.Errorf("Members: got %v", got)
	}
}

func TestEncodingsDisjointPrefixes(t *testing.T) {
	// A fingerprint consumer must be able to tell encodings apart by first byte.
	kinds := map[byte]string{
		'[': List(nil), '{': Set(nil), '(': Pair("", ""), '<': Map(nil),
	}
	for b, enc := range kinds {
		if enc[0] != b {
			t.Errorf("encoding %q does not start with %q", enc, string(b))
		}
	}
	if !strings.Contains(Atom("x"), ":") {
		t.Error("atoms must contain the length separator")
	}
}

// TestParseMapCanonical: the strict decoder accepts exactly what Map
// produces and rejects well-formed but non-canonical encodings (unsorted
// or duplicate keys), which the lenient ParseMap tolerates.
func TestParseMapCanonical(t *testing.T) {
	good := Map(map[string]string{"a": "1", "b": "2", "": "z"})
	m, err := ParseMapCanonical(good)
	if err != nil || len(m) != 3 || m["a"] != "1" || m[""] != "z" {
		t.Fatalf("ParseMapCanonical(%q) = %v, %v", good, m, err)
	}
	for _, bad := range []string{
		"<(1:b1:2)(1:a1:1)>", // unsorted
		"<(1:a1:1)(1:a1:2)>", // duplicate
	} {
		if _, err := ParseMap(bad); err != nil {
			t.Fatalf("lenient ParseMap rejected %q: %v", bad, err)
		}
		if _, err := ParseMapCanonical(bad); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseMapCanonical(%q) = %v, want ErrMalformed", bad, err)
		}
	}
}

// TestParseSetCanonical: same strictness for set encodings.
func TestParseSetCanonical(t *testing.T) {
	good := Set([]string{"b", "a", "a"})
	items, err := ParseSetCanonical(good)
	if err != nil || len(items) != 2 || items[0] != "a" || items[1] != "b" {
		t.Fatalf("ParseSetCanonical(%q) = %v, %v", good, items, err)
	}
	for _, bad := range []string{
		"{1:b1:a}", // unsorted
		"{1:a1:a}", // duplicate
	} {
		if _, err := ParseSet(bad); err != nil {
			t.Fatalf("lenient ParseSet rejected %q: %v", bad, err)
		}
		if _, err := ParseSetCanonical(bad); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseSetCanonical(%q) = %v, want ErrMalformed", bad, err)
		}
	}
}

// FuzzParseSeq bashes the list and set decoders: neither may panic, and
// what one accepts re-encodes to an input it parses back to the same items
// (for a set, the same sorted, deduplicated members).
func FuzzParseSeq(f *testing.F) {
	f.Add("[]")
	f.Add("{}")
	f.Add("[1:a0:3:b:c]")
	f.Add("{1:b1:a1:b}") // unsorted, repeated members
	f.Add("[1:a")        // unterminated
	f.Add("{2:a}")       // truncated atom
	f.Add("[1:a]x")      // trailing input
	f.Add("[[]]")
	f.Fuzz(func(t *testing.T, s string) {
		if items, err := ParseList(s); err == nil {
			back, err := ParseList(List(items))
			if err != nil || !reflect.DeepEqual(back, items) {
				t.Fatalf("ParseList(%q) = %q; its re-encoding parses to %q, %v", s, items, back, err)
			}
		}
		if items, err := ParseSet(s); err == nil {
			back, err := ParseSet(Set(items))
			if want := slices.Compact(slices.Sorted(slices.Values(items))); err != nil || !slices.Equal(back, want) {
				t.Fatalf("ParseSet(%q) = %q; its re-encoding parses to %q, %v; want %q", s, items, back, err, want)
			}
		}
	})
}
