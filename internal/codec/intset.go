package codec

import (
	"sort"
	"strconv"
	"strings"
)

// IntSet is a small set of non-negative integers (process endpoints in this
// repository). The zero value is the empty set. IntSet values are immutable
// by convention: mutating operations return a new set, which keeps component
// states cheap to snapshot during exploration.
type IntSet struct {
	members map[int]struct{}
}

// NewIntSet builds a set from the given members.
func NewIntSet(members ...int) IntSet {
	s := IntSet{members: make(map[int]struct{}, len(members))}
	for _, m := range members {
		s.members[m] = struct{}{}
	}
	return s
}

// Has reports whether v is in the set.
func (s IntSet) Has(v int) bool {
	_, ok := s.members[v]
	return ok
}

// Len returns the cardinality of the set.
func (s IntSet) Len() int { return len(s.members) }

// With returns a new set that also contains v.
func (s IntSet) With(v int) IntSet {
	out := IntSet{members: make(map[int]struct{}, len(s.members)+1)}
	for m := range s.members {
		out.members[m] = struct{}{}
	}
	out.members[v] = struct{}{}
	return out
}

// Without returns a new set without v.
func (s IntSet) Without(v int) IntSet {
	out := IntSet{members: make(map[int]struct{}, len(s.members))}
	for m := range s.members {
		if m != v {
			out.members[m] = struct{}{}
		}
	}
	return out
}

// Union returns the union of s and t.
func (s IntSet) Union(t IntSet) IntSet {
	out := IntSet{members: make(map[int]struct{}, len(s.members)+len(t.members))}
	for m := range s.members {
		out.members[m] = struct{}{}
	}
	for m := range t.members {
		out.members[m] = struct{}{}
	}
	return out
}

// SubsetOf reports whether every member of s is in t.
func (s IntSet) SubsetOf(t IntSet) bool {
	for m := range s.members {
		if !t.Has(m) {
			return false
		}
	}
	return true
}

// Members returns the members in ascending order.
func (s IntSet) Members() []int {
	out := make([]int, 0, len(s.members))
	for m := range s.members {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// Equal reports whether two sets have the same members.
func (s IntSet) Equal(t IntSet) bool {
	return len(s.members) == len(t.members) && s.SubsetOf(t)
}

// Fingerprint returns the canonical encoding of the set.
func (s IntSet) Fingerprint() string {
	var scratch [64]byte
	return string(s.AppendFingerprint(scratch[:0]))
}

// String renders the set for humans, e.g. "{1,3,4}".
func (s IntSet) String() string {
	ms := s.Members()
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = strconv.Itoa(m)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// ParseIntSet decodes a fingerprint produced by IntSet.Fingerprint.
func ParseIntSet(enc string) (IntSet, error) {
	items, err := ParseSet(enc)
	if err != nil {
		return IntSet{}, err
	}
	s := IntSet{members: make(map[int]struct{}, len(items))}
	for _, it := range items {
		v, err := strconv.Atoi(it)
		if err != nil {
			return IntSet{}, err
		}
		s.members[v] = struct{}{}
	}
	return s, nil
}
