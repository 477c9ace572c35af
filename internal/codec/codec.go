// Package codec provides canonical, order-stable string encodings for the
// values that flow through the framework: integers, integer sets, string
// sequences, and string-keyed maps.
//
// Every automaton state in this repository must have a canonical fingerprint
// so that the execution graph G(C) of the paper (Section 3.3) can be memoized
// and searched. The encodings here are the shared substrate for those
// fingerprints: they are injective (distinct values encode distinctly) and
// canonical (equal values encode identically, regardless of construction
// order).
//
// The grammar is deliberately tiny:
//
//	atom   := length ":" bytes        (length-prefixed, so atoms never collide)
//	list   := "[" atom* "]"
//	set    := "{" sorted atoms "}"
//	pair   := "(" atom atom ")"
//
// Length prefixes make the encoding unambiguous without escaping.
package codec

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrMalformed is returned by decoders when the input is not a canonical
// encoding produced by this package.
var ErrMalformed = errors.New("codec: malformed encoding")

// Atom encodes a single string as a length-prefixed atom.
func Atom(s string) string {
	var scratch [128]byte
	return string(AppendAtom(sized(scratch[:0], atomLen(s)), s))
}

// atomLen is the length of s's atom encoding.
func atomLen(s string) int {
	n := len(s) + 2 // one length digit and the ':'
	for l := len(s); l >= 10; l /= 10 {
		n++
	}
	return n
}

// seqLen is the length of the list encoding of items, and the most their
// set encoding can take.
func seqLen(items []string) int {
	n := 2
	for _, it := range items {
		n += atomLen(it)
	}
	return n
}

// sized returns dst when it has room for n bytes, otherwise an empty slice
// of capacity n, so an encoding whose length is known up front is grown at
// most once. The string builders below pass a stack array for dst: small
// encodings then allocate only the string they return.
func sized(dst []byte, n int) []byte {
	if cap(dst) >= n {
		return dst
	}
	return make([]byte, 0, n)
}

// ParseAtom decodes one atom from the front of s, returning the value and the
// remainder of s.
func ParseAtom(s string) (val, rest string, err error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return "", "", fmt.Errorf("%w: missing length separator in %q", ErrMalformed, truncate(s))
	}
	n, err := strconv.Atoi(s[:i])
	if err != nil || n < 0 {
		return "", "", fmt.Errorf("%w: bad length prefix in %q", ErrMalformed, truncate(s))
	}
	body := s[i+1:]
	if len(body) < n {
		return "", "", fmt.Errorf("%w: truncated atom in %q", ErrMalformed, truncate(s))
	}
	return body[:n], body[n:], nil
}

// Int encodes an integer as an atom.
func Int(v int) string {
	var scratch [24]byte
	return string(AppendInt(scratch[:0], v))
}

// ParseInt decodes an integer atom from the front of s.
func ParseInt(s string) (v int, rest string, err error) {
	a, rest, err := ParseAtom(s)
	if err != nil {
		return 0, "", err
	}
	v, err = strconv.Atoi(a)
	if err != nil {
		return 0, "", fmt.Errorf("%w: non-integer atom %q", ErrMalformed, a)
	}
	return v, rest, nil
}

// List encodes a sequence of strings, preserving order.
func List(items []string) string {
	var scratch [128]byte
	return string(AppendList(sized(scratch[:0], seqLen(items)), items))
}

// ParseList decodes a list encoding in full; it errors on trailing input.
func ParseList(s string) ([]string, error) {
	items, rest, err := parseSeq(s, '[', ']', "list")
	if err != nil {
		return nil, err
	}
	if rest != "" {
		return nil, fmt.Errorf("%w: trailing input %q after list", ErrMalformed, truncate(rest))
	}
	return items, nil
}

// Set encodes a set of strings canonically (sorted, deduplicated).
func Set(items []string) string {
	var scratch [128]byte
	return string(AppendSet(sized(scratch[:0], seqLen(items)), items))
}

// ParseSet decodes a set encoding in full.
func ParseSet(s string) ([]string, error) {
	items, rest, err := parseSeq(s, '{', '}', "set")
	if err != nil {
		return nil, err
	}
	if rest != "" {
		return nil, fmt.Errorf("%w: trailing input after set", ErrMalformed)
	}
	return items, nil
}

// parseSeq decodes the bracketed sequence of atoms at the front of s — the
// open byte, atoms, the close byte — and returns the atoms (never nil) and
// what follows. what names the sequence in errors.
func parseSeq(s string, open, close byte, what string) (items []string, rest string, err error) {
	if len(s) == 0 || s[0] != open {
		return nil, "", fmt.Errorf("%w: %s must start with '%c' in %q", ErrMalformed, what, open, truncate(s))
	}
	s = s[1:]
	items = []string{}
	for {
		if len(s) == 0 {
			return nil, "", fmt.Errorf("%w: unterminated %s", ErrMalformed, what)
		}
		if s[0] == close {
			return items, s[1:], nil
		}
		var it string
		if it, s, err = ParseAtom(s); err != nil {
			return nil, "", err
		}
		items = append(items, it)
	}
}

// Pair encodes an ordered pair of strings.
func Pair(a, b string) string {
	var scratch [128]byte
	return string(AppendPair(sized(scratch[:0], 2+atomLen(a)+atomLen(b)), a, b))
}

// ParsePair decodes a pair encoding in full.
func ParsePair(s string) (a, b string, err error) {
	if len(s) == 0 || s[0] != '(' {
		return "", "", fmt.Errorf("%w: pair must start with '(' in %q", ErrMalformed, truncate(s))
	}
	a, rest, err := ParseAtom(s[1:])
	if err != nil {
		return "", "", err
	}
	b, rest, err = ParseAtom(rest)
	if err != nil {
		return "", "", err
	}
	if rest != ")" {
		return "", "", fmt.Errorf("%w: pair must end with ')'", ErrMalformed)
	}
	return a, b, nil
}

// Map encodes a string-keyed map canonically (entries sorted by key).
func Map(m map[string]string) string {
	n := 2
	for k, v := range m {
		n += 2 + atomLen(k) + atomLen(v)
	}
	var scratch [128]byte
	return string(AppendMap(sized(scratch[:0], n), m))
}

// ParseMap decodes a map encoding in full.
func ParseMap(s string) (map[string]string, error) {
	return parseMap(s, false)
}

// ParseMapCanonical decodes a map encoding like ParseMap, additionally
// requiring the canonical form Map produces: entry keys strictly increasing
// (sorted, no duplicates). Decoders of canonical fingerprints use it so
// that every accepted input re-encodes byte-identically.
func ParseMapCanonical(s string) (map[string]string, error) {
	return parseMap(s, true)
}

func parseMap(s string, canonicalOrder bool) (map[string]string, error) {
	if len(s) == 0 || s[0] != '<' {
		return nil, fmt.Errorf("%w: map must start with '<' in %q", ErrMalformed, truncate(s))
	}
	s = s[1:]
	m := map[string]string{}
	var prev string
	for {
		if len(s) == 0 {
			return nil, fmt.Errorf("%w: unterminated map", ErrMalformed)
		}
		if s[0] == '>' {
			if s[1:] != "" {
				return nil, fmt.Errorf("%w: trailing input after map", ErrMalformed)
			}
			return m, nil
		}
		end := matchPair(s)
		if end < 0 {
			return nil, fmt.Errorf("%w: bad map entry", ErrMalformed)
		}
		k, v, err := ParsePair(s[:end])
		if err != nil {
			return nil, err
		}
		if canonicalOrder && len(m) > 0 && k <= prev {
			return nil, fmt.Errorf("%w: map keys not in canonical order (%q after %q)", ErrMalformed, k, prev)
		}
		m[k] = v
		prev = k
		s = s[end:]
	}
}

// ParseSetCanonical decodes a set encoding like ParseSet, additionally
// requiring the canonical form Set produces: items strictly increasing
// (sorted, no duplicates).
func ParseSetCanonical(s string) ([]string, error) {
	items, err := ParseSet(s)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(items); i++ {
		if items[i] <= items[i-1] {
			return nil, fmt.Errorf("%w: set items not in canonical order (%q after %q)", ErrMalformed, items[i], items[i-1])
		}
	}
	return items, nil
}

// matchPair returns the index just past the pair encoding at the front of s,
// or -1 if s does not start with a well-formed pair.
func matchPair(s string) int { return frameLen(s, '(', ')', 2) }

// TupleLen returns the length of the tuple encoding at the front of s — '['
// followed by n atoms and ']', the frame of the process and service state
// encodings — or -1 if s does not start with one. Only the frame is
// scanned: the atoms' contents are skipped by their length prefixes, not
// decoded.
func TupleLen(s string, n int) int { return frameLen(s, '[', ']', n) }

// frameLen returns the length of the prefix of s made of the open byte, n
// atoms and the close byte, or -1 if s does not start with one.
func frameLen(s string, open, close byte, n int) int {
	if len(s) == 0 || s[0] != open {
		return -1
	}
	rest := s[1:]
	for i := 0; i < n; i++ {
		_, r, err := ParseAtom(rest)
		if err != nil {
			return -1
		}
		rest = r
	}
	if len(rest) == 0 || rest[0] != close {
		return -1
	}
	return len(s) - len(rest) + 1
}

func truncate(s string) string {
	const max = 32
	if len(s) > max {
		return s[:max] + "..."
	}
	return s
}
