// Package intern maps canonical state encodings to dense numeric IDs.
//
// Explicit-state exploration lives or dies on how vertices of the execution
// graph G(C) are keyed: a multi-hundred-byte canonical string per vertex in
// every table multiplies memory and hashing cost by the fingerprint length.
// The standard model-checking move (SPIN, TLC) is to intern each canonical
// encoding exactly once, hand out a dense uint32 index, and key every other
// table — successor lists, valence masks, BFS trees — by that index,
// so the per-vertex cost of the surrounding tables drops to a few words and
// array indexing replaces string hashing on every edge.
//
// IDs are assigned in interning order, so a breadth-first exploration that
// interns states in discovery order gets BFS-numbered vertices for free:
// roots first, then each level contiguously.
package intern

import "math"

// StateID is a dense index of an interned state: the i-th distinct encoding
// interned into a Table gets ID i. IDs are stable for the lifetime of their
// Table and are meaningless across tables.
type StateID uint32

// NoState is a sentinel that is never a valid StateID of any table that
// holds fewer than 2^32 − 1 states (the Table's hard capacity).
const NoState = StateID(math.MaxUint32)

// Table interns canonical encodings into dense StateIDs.
//
// Concurrency contract: Table is as safe as a Go map. Any number of
// goroutines may call Lookup/Key/Len concurrently as long as no Intern call
// overlaps them; Intern requires exclusive access.
//
// The exploration engine no longer keys its vertex store on canonical
// strings (it dedups on cell-index tuples; see explore's denseStore), so the
// one importer left is the benchmark's intern.* probe.
type Table struct {
	idx  map[string]StateID
	keys []string
}

// NewTable returns an empty table with room hinted for n states.
func NewTable(n int) *Table {
	return &Table{
		idx:  make(map[string]StateID, n),
		keys: make([]string, 0, n),
	}
}

// Len returns the number of interned states.
func (t *Table) Len() int { return len(t.keys) }

// Lookup returns the ID of an already-interned encoding.
func (t *Table) Lookup(key string) (StateID, bool) {
	id, ok := t.idx[key]
	return id, ok
}

// Intern returns the ID of key, assigning the next dense ID if the encoding
// is new. fresh reports a new assignment. See the Table doc comment for the
// concurrency contract.
func (t *Table) Intern(key string) (id StateID, fresh bool) {
	if id, ok := t.idx[key]; ok {
		return id, false
	}
	id = StateID(len(t.keys))
	t.idx[key] = id
	t.keys = append(t.keys, key)
	return id, true
}

// Key returns the canonical encoding interned as id. It panics if id was
// never assigned, mirroring slice indexing.
func (t *Table) Key(id StateID) string { return t.keys[id] }
