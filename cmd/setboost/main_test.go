package main

import (
	"bytes"
	"io"
	"testing"
)

func TestRunVerifiesBoost(t *testing.T) {
	if err := run([]string{"-group", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadGroup(t *testing.T) {
	if err := run([]string{"-group", "0"}, io.Discard); err == nil {
		t.Error("want error for group size 0")
	}
}

// TestRunTakesWorkersOnly: setboost explores no graph, so the exploration
// flags are unknown, and -workers changes nothing it prints.
func TestRunTakesWorkersOnly(t *testing.T) {
	if err := run([]string{"-group", "2", "-symmetry"}, io.Discard); err == nil || err.Error() != "flag provided but not defined: -symmetry" {
		t.Errorf("run(-symmetry) = %v, want the flag package's unknown-flag error", err)
	}
	var one, two bytes.Buffer
	if err := run([]string{"-group", "2", "-workers", "1"}, &one); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-group", "2", "-workers", "2"}, &two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Errorf("-workers 2 printed\n%s\n-workers 1 printed\n%s", two.String(), one.String())
	}
}
