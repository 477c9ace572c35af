package service

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"github.com/ioa-lab/boosting/internal/codec"
)

// This file is the decode face of the service state codec: ParseStatePrefix
// reconstructs a State from the canonical encoding AppendFingerprint
// produces. Decoding is strict — only canonical encodings are accepted
// (sorted buffer maps and failed sets, canonical endpoint keys, no empty
// queues), so every accepted input re-encodes byte-identically (asserted
// by the round-trip and fuzz tests). The disk-spilling state store relies
// on this: spilled vertices are stored as their fingerprints and decoded
// on demand.

// ParseStatePrefix decodes one service state from the front of s, returning
// the state and the remainder of s. It errors (wrapping codec.ErrMalformed)
// on anything that is not a canonical service encoding.
func ParseStatePrefix(s string) (State, string, error) {
	if len(s) == 0 || s[0] != '[' {
		return State{}, "", fmt.Errorf("%w: service state must start with '['", codec.ErrMalformed)
	}
	valEnc, rest, err := codec.ParseAtom(s[1:])
	if err != nil {
		return State{}, "", fmt.Errorf("service value: %w", err)
	}
	invEnc, rest, err := codec.ParseAtom(rest)
	if err != nil {
		return State{}, "", fmt.Errorf("service inv-buffer: %w", err)
	}
	respEnc, rest, err := codec.ParseAtom(rest)
	if err != nil {
		return State{}, "", fmt.Errorf("service resp-buffer: %w", err)
	}
	failedEnc, rest, err := codec.ParseAtom(rest)
	if err != nil {
		return State{}, "", fmt.Errorf("service failed-set: %w", err)
	}
	if len(rest) == 0 || rest[0] != ']' {
		return State{}, "", fmt.Errorf("%w: service state must end with ']'", codec.ErrMalformed)
	}
	rest = rest[1:]

	val, vrest, verr := codec.ParseAtom(valEnc)
	if verr != nil {
		return State{}, "", fmt.Errorf("service value: %w", verr)
	}
	if vrest != "" {
		return State{}, "", fmt.Errorf("%w: trailing input after service value", codec.ErrMalformed)
	}
	inv, err := parseBuffers(invEnc)
	if err != nil {
		return State{}, "", fmt.Errorf("service inv-buffer: %w", err)
	}
	resp, err := parseBuffers(respEnc)
	if err != nil {
		return State{}, "", fmt.Errorf("service resp-buffer: %w", err)
	}
	failed, err := parseFailedSet(failedEnc)
	if err != nil {
		return State{}, "", fmt.Errorf("service failed-set: %w", err)
	}
	return State{Val: val, Inv: inv, Resp: resp, Failed: failed}, rest, nil
}

// StatePrefixLen returns the length of the service state encoding at the
// front of s, found by scanning its frame without decoding it, or -1 if s
// does not start with the frame of one. For a canonical encoding this is
// exactly what ParseStatePrefix consumes, which lets a caller that caches
// decoded states look one up by s[:n] and decode only on a miss; the prefix
// is not validated beyond its frame.
func StatePrefixLen(s string) int { return codec.TupleLen(s, 4) }

// parseFailedSet decodes the failed-endpoint set, requiring the canonical
// form IntSet.AppendFingerprint produces: decimal members in strictly
// increasing lexicographic order.
func parseFailedSet(enc string) (codec.IntSet, error) {
	items, err := codec.ParseSetCanonical(enc)
	if err != nil {
		return codec.IntSet{}, err
	}
	members := make([]int, len(items))
	for i, it := range items {
		v, err := strconv.Atoi(it)
		if err != nil || strconv.Itoa(v) != it {
			return codec.IntSet{}, fmt.Errorf("%w: non-canonical failed endpoint %q", codec.ErrMalformed, it)
		}
		members[i] = v
	}
	return codec.NewIntSet(members...), nil
}

// parseBuffers decodes a per-endpoint FIFO buffer map: a map keyed by the
// endpoint's decimal encoding whose values are list-encoded queues. The
// encoder never writes empty queues, so an empty queue entry is malformed.
func parseBuffers(enc string) (Buffers, error) {
	m, err := codec.ParseMapCanonical(enc)
	if err != nil {
		return Buffers{}, err
	}
	// Sorted keys are the canonical order: each is its endpoint's decimal
	// encoding.
	var b Buffers
	for _, k := range slices.Sorted(maps.Keys(m)) {
		i, err := strconv.Atoi(k)
		if err != nil || strconv.Itoa(i) != k {
			return Buffers{}, fmt.Errorf("%w: non-canonical endpoint key %q", codec.ErrMalformed, k)
		}
		items, err := codec.ParseList(m[k])
		if err != nil {
			return Buffers{}, err
		}
		if len(items) == 0 {
			return Buffers{}, fmt.Errorf("%w: empty buffer entry for endpoint %d", codec.ErrMalformed, i)
		}
		b.qs = append(b.qs, queue{id: i, items: items})
	}
	return b, nil
}
