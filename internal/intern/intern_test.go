package intern

import "testing"

func TestInternAssignsDenseIDs(t *testing.T) {
	tab := NewTable(4)
	keys := []string{"alpha", "beta", "gamma"}
	for i, k := range keys {
		id, fresh := tab.Intern(k)
		if !fresh || id != StateID(i) {
			t.Fatalf("Intern(%q) = %d, fresh=%v; want %d, true", k, id, fresh, i)
		}
	}
	if tab.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(keys))
	}
	// Re-interning returns the original IDs without growth.
	for i, k := range keys {
		id, fresh := tab.Intern(k)
		if fresh || id != StateID(i) {
			t.Fatalf("re-Intern(%q) = %d, fresh=%v", k, id, fresh)
		}
	}
	for i, k := range keys {
		if got := tab.Key(StateID(i)); got != k {
			t.Fatalf("Key(%d) = %q, want %q", i, got, k)
		}
		id, ok := tab.Lookup(k)
		if !ok || id != StateID(i) {
			t.Fatalf("Lookup(%q) = %d, %v", k, id, ok)
		}
	}
	if _, ok := tab.Lookup("missing"); ok {
		t.Fatal("Lookup of a never-interned key succeeded")
	}
}
