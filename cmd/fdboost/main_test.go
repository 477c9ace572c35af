package main

import (
	"bytes"
	"io"
	"testing"
)

func TestRunVerifiesFDBoost(t *testing.T) {
	if err := run([]string{"-n", "3"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadN(t *testing.T) {
	if err := run([]string{"-n", "1"}, io.Discard); err == nil {
		t.Error("want error for n = 1")
	}
}

// TestRunTakesWorkersOnly: fdboost explores no graph, so the exploration
// flags are unknown, and -workers changes nothing it prints.
func TestRunTakesWorkersOnly(t *testing.T) {
	if err := run([]string{"-n", "3", "-symmetry"}, io.Discard); err == nil || err.Error() != "flag provided but not defined: -symmetry" {
		t.Errorf("run(-symmetry) = %v, want the flag package's unknown-flag error", err)
	}
	var one, two bytes.Buffer
	if err := run([]string{"-n", "3", "-workers", "1"}, &one); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "3", "-workers", "2"}, &two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Errorf("-workers 2 printed\n%s\n-workers 1 printed\n%s", two.String(), one.String())
	}
}
