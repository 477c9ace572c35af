package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"
)

//go:embed expected.json
var expectedJSON []byte

// verdict is what an op returned, in expected.json's terms. Fields the
// op's analysis does not produce stay nil/empty.
type verdict struct {
	States        int      `json:"states"`
	Edges         int      `json:"edges"`
	Valences      []string `json:"valences"`
	BivalentIndex *int     `json:"bivalentIndex"`
	Violated      *bool    `json:"violated"`
	ReportSha256  string   `json:"reportSha256"`
}

// expectation is one hand-written golden verdict of expected.json, with
// the test table it was copied from. Every op's output is compared against
// one of these, never against a value the harness computed itself.
type expectation struct {
	Source string `json:"source"`
	verdict
}

// check reports the first field of got that differs from the golden;
// optional fields are compared only when the golden pins them.
func (e expectation) check(got verdict) error {
	if got.States != e.States || got.Edges != e.Edges {
		return fmt.Errorf("%d states / %d edges, want %d / %d", got.States, got.Edges, e.States, e.Edges)
	}
	if !slices.Equal(got.Valences, e.Valences) {
		return fmt.Errorf("root valences %v, want %v", got.Valences, e.Valences)
	}
	if e.BivalentIndex != nil && (got.BivalentIndex == nil || *got.BivalentIndex != *e.BivalentIndex) {
		return fmt.Errorf("bivalent index %v, want %d", deref(got.BivalentIndex), *e.BivalentIndex)
	}
	if e.Violated != nil && (got.Violated == nil || *got.Violated != *e.Violated) {
		return fmt.Errorf("violated %v, want %t", deref(got.Violated), *e.Violated)
	}
	if e.ReportSha256 != "" && got.ReportSha256 != e.ReportSha256 {
		return fmt.Errorf("report sha256 %s, want %s", got.ReportSha256, e.ReportSha256)
	}
	return nil
}

func deref[T any](p *T) any {
	if p == nil {
		return "absent"
	}
	return *p
}

// expectedTable is expected.json, keyed by workload (and, for
// boostd-session, by request kind).
type expectedTable map[string]expectation

// loadExpected parses the embedded golden file.
func loadExpected() (expectedTable, error) {
	var t expectedTable
	if err := json.Unmarshal(expectedJSON, &t); err != nil {
		return nil, fmt.Errorf("bench: expected.json: %w", err)
	}
	return t, nil
}

// get returns the golden under key, failing the precondition when
// expected.json does not carry it.
func (t expectedTable) get(key string) (expectation, error) {
	e, ok := t[key]
	if !ok {
		return expectation{}, fmt.Errorf("bench: expected.json has no entry %q", key)
	}
	return e, nil
}
