// Positive, suppressed and negative cases for the storebounds analyzer.
package storex

import "fmt"

type StateID uint32

type unguarded struct{ xs []string }

// The index runs before any bounds comparison at all.
func (s *unguarded) Fingerprint(id StateID) string {
	return s.xs[id] // want `index expression in store read accessor Fingerprint`
}

type intGuarded struct{ xs []string }

// An int guard does not count: a StateID above MaxInt32 survives the int
// conversion on 32-bit targets and the uint trick is the house style.
func (s *intGuarded) Fingerprint(id StateID) string {
	if int(id) >= len(s.xs) {
		return ""
	}
	return s.xs[id] // want `index expression in store read accessor Fingerprint`
}

type guarded struct{ xs []string }

// The canonical total accessor.
func (s *guarded) Fingerprint(id StateID) string {
	if uint(id) >= uint(len(s.xs)) {
		return ""
	}
	return s.xs[id]
}

type panicking struct{ xs []string }

func (s *panicking) State(id StateID) (string, bool) {
	if uint(id) >= uint(len(s.xs)) {
		return "", false
	}
	if s.xs[id] == "" {
		panic(fmt.Sprintf("corrupt entry %d", id)) // want `panic in store read accessor State`
	}
	return s.xs[id], true
}

type waived struct{ xs []string }

// The spill backend's corruption panics are deliberate and documented.
func (s *waived) State(id StateID) (string, bool) {
	if uint(id) >= uint(len(s.xs)) {
		return "", false
	}
	if s.xs[id] == "" {
		//lint:boostvet-ignore storebounds — corruption of self-written bytes, not a bounds miss
		panic("corrupt entry")
	}
	return s.xs[id], true
}

type adjacency struct {
	to   []StateID
	ends []uint32
}

// The label-free accessor is held to the same rule: reading ends[id] for the
// block's extent is the index an out-of-range id would panic on.
func (a *adjacency) Targets(id StateID, buf []StateID) []StateID {
	if int(id) >= len(a.ends) {
		return buf
	}
	lo := uint32(0)
	if id > 0 {
		lo = a.ends[id-1] // want `index expression in store read accessor Targets`
	}
	return append(buf, a.to[lo:a.ends[id]]...) // want `index expression in store read accessor Targets`
}

type totalAdjacency struct {
	to   []StateID
	ends []uint32
}

func (a *totalAdjacency) Targets(id StateID, buf []StateID) []StateID {
	if uint(id) >= uint(len(a.ends)) {
		return buf
	}
	lo := uint32(0)
	if id > 0 {
		lo = a.ends[id-1]
	}
	return append(buf, a.to[lo:a.ends[id]]...)
}

type outer struct{ inner guarded }

// Pure delegation: the bounds discipline lives at the forwarding target.
func (o *outer) Fingerprint(id StateID) string { return o.inner.Fingerprint(id) }

type writer struct{ xs []string }

// Write-side methods are not read accessors; growth is the caller's
// invariant and indexing freely is fine.
func (w *writer) SetState(id StateID, v string) { w.xs[id] = v }
