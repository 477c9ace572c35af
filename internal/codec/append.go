package codec

import (
	"sort"
	"strconv"
)

// This file is the codec's one encoder: every Append* function writes its
// encoding into dst and returns the extended slice, in the style of
// strconv.AppendInt. Callers that reuse a buffer across calls
// (dst = codec.AppendAtom(dst[:0], v)) encode states without allocating on
// the hot path; the string builders in codec.go (Atom, List, Set, ...) are
// these functions' output converted to a string.

// AppendAtom appends the length-prefixed atom encoding of s.
func AppendAtom(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}

// AppendInt appends the atom encoding of an integer.
func AppendInt(dst []byte, v int) []byte {
	// The value doubles as its own length-prefixed body:
	// Int(v) == Atom(strconv.Itoa(v)).
	var scratch [24]byte
	body := strconv.AppendInt(scratch[:0], int64(v), 10)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, ':')
	return append(dst, body...)
}

// AppendList appends the list encoding of items, preserving order.
func AppendList(dst []byte, items []string) []byte {
	dst = append(dst, '[')
	for _, it := range items {
		dst = AppendAtom(dst, it)
	}
	return append(dst, ']')
}

// AppendSet appends the set encoding of items (sorted, deduplicated). The
// input slice is not modified; sorting uses an internal scratch copy only
// when items is not already sorted.
func AppendSet(dst []byte, items []string) []byte {
	if !sort.StringsAreSorted(items) {
		sorted := make([]string, len(items))
		copy(sorted, items)
		sort.Strings(sorted)
		items = sorted
	}
	dst = append(dst, '{')
	var prev string
	first := true
	for _, it := range items {
		if !first && it == prev {
			continue
		}
		dst = AppendAtom(dst, it)
		prev, first = it, false
	}
	return append(dst, '}')
}

// AppendPair appends the ordered-pair encoding of (a, b).
func AppendPair(dst []byte, a, b string) []byte {
	dst = append(dst, '(')
	dst = AppendAtom(dst, a)
	dst = AppendAtom(dst, b)
	return append(dst, ')')
}

// AppendMap appends the canonical map encoding of m (entries sorted by key).
func AppendMap(dst []byte, m map[string]string) []byte {
	switch len(m) {
	case 0:
		return append(dst, '<', '>')
	case 1:
		dst = append(dst, '<')
		for k, v := range m {
			dst = AppendPair(dst, k, v)
		}
		return append(dst, '>')
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = append(dst, '<')
	for _, k := range keys {
		dst = AppendPair(dst, k, m[k])
	}
	return append(dst, '>')
}

// AppendWrapped appends the encoding produced by enc as a single atom: the
// nested encoding is written in place and its length prefix is then spliced
// in front of it, so composite encodings (a map inside a list, say) need no
// intermediate string. enc must append to — and return an extension of — the
// slice it is given.
func AppendWrapped(dst []byte, enc func([]byte) []byte) []byte {
	start := len(dst)
	dst = enc(dst)
	n := len(dst) - start
	var scratch [24]byte
	prefix := strconv.AppendInt(scratch[:0], int64(n), 10)
	prefix = append(prefix, ':')
	dst = append(dst, prefix...)
	// Rotate the prefix in front of the body: [body prefix] → [prefix body].
	copy(dst[start+len(prefix):], dst[start:start+n])
	copy(dst[start:], prefix)
	return dst
}

// AppendFingerprint appends the canonical encoding of s: the set encoding of
// its members' decimal strings. Fingerprint returns it as a string.
func (s IntSet) AppendFingerprint(dst []byte) []byte {
	switch len(s.members) {
	case 0:
		return append(dst, '{', '}')
	case 1:
		dst = append(dst, '{')
		for m := range s.members {
			dst = AppendInt(dst, m)
		}
		return append(dst, '}')
	}
	// Members must appear in the lexicographic order of their decimal
	// encodings (the order Set imposes), not numeric order.
	items := make([]string, 0, len(s.members))
	for m := range s.members {
		items = append(items, strconv.Itoa(m))
	}
	return AppendSet(dst, items)
}
