package process

import (
	"fmt"

	"github.com/ioa-lab/boosting/internal/codec"
)

// This file is the decode face of the process state codec: ParseStatePrefix
// reconstructs a State from the canonical encoding AppendFingerprint
// produces. Decoding is strict — only canonical encodings are accepted
// (sorted maps, canonical flag atoms), so every accepted input re-encodes
// byte-identically (asserted by the round-trip and fuzz tests). The
// disk-spilling state store relies on this: spilled vertices are stored as
// their fingerprints and decoded on demand.

// ParseStatePrefix decodes one process state from the front of s, returning
// the state and the remainder of s. It errors (wrapping codec.ErrMalformed)
// on anything that is not a canonical process encoding.
func ParseStatePrefix(s string) (State, string, error) {
	if len(s) == 0 || s[0] != '[' {
		return State{}, "", fmt.Errorf("%w: process state must start with '['", codec.ErrMalformed)
	}
	varsEnc, rest, err := codec.ParseAtom(s[1:])
	if err != nil {
		return State{}, "", fmt.Errorf("process vars: %w", err)
	}
	outboxEnc, rest, err := codec.ParseAtom(rest)
	if err != nil {
		return State{}, "", fmt.Errorf("process outbox: %w", err)
	}
	decidedEnc, rest, err := codec.ParseAtom(rest)
	if err != nil {
		return State{}, "", fmt.Errorf("process decision: %w", err)
	}
	flagsEnc, rest, err := codec.ParseAtom(rest)
	if err != nil {
		return State{}, "", fmt.Errorf("process flags: %w", err)
	}
	if len(rest) == 0 || rest[0] != ']' {
		return State{}, "", fmt.Errorf("%w: process state must end with ']'", codec.ErrMalformed)
	}
	rest = rest[1:]

	vars, err := codec.ParseMapCanonical(varsEnc)
	if err != nil {
		return State{}, "", fmt.Errorf("process vars: %w", err)
	}
	outbox, err := parseOutbox(outboxEnc)
	if err != nil {
		return State{}, "", err
	}
	decided, err := parseAtomFull(decidedEnc)
	if err != nil {
		return State{}, "", fmt.Errorf("process decision: %w", err)
	}
	flags, err := parseAtomFull(flagsEnc)
	if err != nil {
		return State{}, "", fmt.Errorf("process flags: %w", err)
	}
	st := State{Vars: vars, Outbox: outbox, Decided: decided}
	for i := 0; i < len(flags); i++ {
		switch flags[i] {
		case 'd':
			st.HasDec = true
		case 'q':
			st.DecideQueued = true
		case 'f':
			st.Failed = true
		}
	}
	// Strictness: the flag atom must be the canonical rendering of the
	// decoded bits — anything else (unknown letters, wrong order,
	// duplicates) is not an encoding this package produced.
	if st.flags() != flags {
		return State{}, "", fmt.Errorf("%w: non-canonical process flags %q", codec.ErrMalformed, flags)
	}
	return st, rest, nil
}

// StatePrefixLen returns the length of the process state encoding at the
// front of s, found by scanning its frame without decoding it, or -1 if s
// does not start with the frame of one. For a canonical encoding this is
// exactly what ParseStatePrefix consumes, which lets a caller that caches
// decoded states look one up by s[:n] and decode only on a miss; the prefix
// is not validated beyond its frame.
func StatePrefixLen(s string) int { return codec.TupleLen(s, 4) }

// parseAtomFull decodes a single atom that must consume its entire input.
func parseAtomFull(s string) (string, error) {
	v, rest, err := codec.ParseAtom(s)
	if err != nil {
		return "", err
	}
	if rest != "" {
		return "", fmt.Errorf("%w: trailing input %q after atom", codec.ErrMalformed, rest)
	}
	return v, nil
}

// parseOutbox decodes the outgoing-action queue: a list whose items are the
// per-action encodings written by Outgoing.appendFingerprint.
func parseOutbox(enc string) ([]Outgoing, error) {
	items, err := codec.ParseList(enc)
	if err != nil {
		return nil, fmt.Errorf("process outbox: %w", err)
	}
	var out []Outgoing
	for _, it := range items {
		o, err := parseOutgoing(it)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// parseOutgoing decodes one queued action: [kind service payload].
func parseOutgoing(s string) (Outgoing, error) {
	if len(s) == 0 || s[0] != '[' {
		return Outgoing{}, fmt.Errorf("%w: outgoing action must start with '['", codec.ErrMalformed)
	}
	kind, rest, err := codec.ParseInt(s[1:])
	if err != nil {
		return Outgoing{}, fmt.Errorf("outgoing kind: %w", err)
	}
	if k := OutKind(kind); k != OutInvoke && k != OutDecide {
		return Outgoing{}, fmt.Errorf("%w: unknown outgoing kind %d", codec.ErrMalformed, kind)
	}
	service, rest, err := codec.ParseAtom(rest)
	if err != nil {
		return Outgoing{}, fmt.Errorf("outgoing service: %w", err)
	}
	payload, rest, err := codec.ParseAtom(rest)
	if err != nil {
		return Outgoing{}, fmt.Errorf("outgoing payload: %w", err)
	}
	if rest != "]" {
		return Outgoing{}, fmt.Errorf("%w: outgoing action must end with ']'", codec.ErrMalformed)
	}
	return Outgoing{Kind: OutKind(kind), Service: service, Payload: payload}, nil
}
