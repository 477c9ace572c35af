package main

import (
	"os"
	"strings"
	"testing"
)

// report splits a report into its table rows, keyed by ID, and every other
// line in order. The table runs from the header's separator line to the
// first blank line after it.
func report(text string) (rows map[string]string, rest []string) {
	rows = map[string]string{}
	inTable := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "|----"):
			inTable = true
		case inTable && line == "":
			inTable = false
		case inTable:
			rows[strings.TrimSpace(strings.Split(line, "|")[1])] = line
			continue
		}
		rest = append(rest, line)
	}
	return rows, rest
}

// TestRowsMatchExperimentsMD runs every row but the heavy ones, once at the
// default options and once on the spill store with two workers, and requires
// each row to agree with the paper (✓) and to print byte-identical to the
// row with its ID in the committed EXPERIMENTS.md, which is the only golden.
// The generated lines around the table must match the committed file too.
func TestRowsMatchExperimentsMD(t *testing.T) {
	committed, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, goldenRest := report(string(committed))
	var light []string
	for _, r := range rows {
		if !r.Heavy {
			light = append(light, r.ID)
		}
	}
	spillDir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"spill-workers-2", []string{"-store", "spill", "-workers", "2", "-spilldir", spillDir}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(append(tc.args, "-only", strings.Join(light, ",")), &out); err != nil {
				t.Fatal(err)
			}
			got, rest := report(out.String())
			if len(got) != len(light) {
				t.Errorf("printed %d rows, want %d", len(got), len(light))
			}
			for _, id := range light {
				line := got[id]
				if !strings.HasSuffix(line, "| ✓ |") {
					t.Errorf("%s does not agree with the paper:\n%s", id, line)
				}
				if line != golden[id] {
					t.Errorf("%s differs from EXPERIMENTS.md:\n got: %s\nwant: %s", id, line, golden[id])
				}
			}
			if len(rest) > len(goldenRest) || strings.Join(rest, "\n") != strings.Join(goldenRest[:len(rest)], "\n") {
				t.Errorf("generated text around the table differs from EXPERIMENTS.md:\n%s", strings.Join(rest, "\n"))
			}
		})
	}
	// Spill edge files are unlinked at creation and E31 removes its graph
	// directory: a finished report leaves the spill directory empty.
	if left, err := os.ReadDir(spillDir); err != nil || len(left) > 0 {
		t.Errorf("spill directory after the report: %v, %v", left, err)
	}
}

// TestOnly: -only matches IDs case-insensitively and refuses an unknown ID
// before running any row.
func TestOnly(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-only", "e6b"}, &out); err != nil {
		t.Fatal(err)
	}
	if got, _ := report(out.String()); len(got) != 1 || got["E6b"] == "" {
		t.Errorf("-only e6b printed rows %v, want E6b alone", got)
	}
	err := run([]string{"-only", "E1,e99"}, &out)
	if want := `-only: unknown experiment id "E99"`; err == nil || err.Error() != want {
		t.Errorf("-only E1,e99: error %v, want %s", err, want)
	}
}
