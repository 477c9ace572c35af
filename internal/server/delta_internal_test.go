package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"github.com/ioa-lab/boosting"
)

// TestDeltaRootMismatchFallsBack: an index entry whose recorded roots are
// not the variant's monotone roots is never answered from. The job is still
// acknowledged "delta" (the probe matched), drops the entry, builds in full
// with the right verdict, and records its own entry in the dropped one's
// place. The planted verdict is wrong on purpose, so an answer read off it
// shows in the states, the valences and the explored count.
func TestDeltaRootMismatchFallsBack(t *testing.T) {
	chk, err := boosting.New("forward", 3, 0, boosting.WithSilencePolicy(boosting.Benign))
	if err != nil {
		t.Fatal(err)
	}
	roots, err := monotoneRoots(chk)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		roots [][]byte
	}{
		{"foreign roots", [][]byte{[]byte("not a root")}},
		{"one root short", roots[:len(roots)-1]},
		{"roots out of order", slices.Concat(roots[1:], roots[:1])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{Pool: 1})
			ts := httptest.NewServer(srv)
			t.Cleanup(func() {
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_ = srv.Shutdown(ctx)
			})
			req := Request{Protocol: "forward", N: 3, Analysis: AnalysisClassify}
			wrongIdx := 0
			planted := &verdictEntry{
				deltaKey: req.deltaKey(),
				exactKey: "a policy variant",
				roots:    tc.roots,
				result: &Result{Analysis: AnalysisClassify, States: 1, Edges: 0,
					Valences: []string{"0-valent"}, BivalentIndex: &wrongIdx},
			}
			srv.verdicts.put(planted)

			code, ack, _ := post(t, ts, `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"policy": "benign"}}`)
			if code != http.StatusAccepted || ack.Cached != CacheDelta {
				t.Fatalf("benign variant: status %d, cached %q; want 202 delta (the entry is live)", code, ack.Cached)
			}
			j, _ := srv.jobs.get(ack.ID)
			waitDone(t, j)
			res := j.result
			want := []string{"0-valent", "bivalent", "bivalent", "1-valent"}
			if res.States != 410 || res.Edges != 1734 || !slices.Equal(res.Valences, want) || *res.BivalentIndex != 1 {
				t.Errorf("fallback verdict %d/%d %v bivalent %d, want 410/1734 %v bivalent 1",
					res.States, res.Edges, res.Valences, *res.BivalentIndex, want)
			}
			if res.Explored == nil || *res.Explored != 410 {
				t.Errorf("fallback Explored = %v, want 410 (a full build)", res.Explored)
			}
			e, ok := srv.verdicts.lookup(req.deltaKey())
			if !ok || e == planted || e.exactKey != j.cacheKey || !slices.EqualFunc(e.roots, roots, slices.Equal) {
				t.Errorf("the index does not hold the rebuild's own entry after the fallback (found %t, the planted one %t)", ok, e == planted)
			}
			if got := srv.Explorations(); got != 1 {
				t.Errorf("explorations = %d, want 1", got)
			}
		})
	}
}

// TestVerdictIndexCap: the index holds at most its cap, evicting the least
// recently used; a lookup refreshes an entry.
func TestVerdictIndexCap(t *testing.T) {
	vi := newVerdictIndex(verdictIndexCap)
	entry := func(i int) *verdictEntry {
		return &verdictEntry{deltaKey: fmt.Sprintf("candidate-%d", i)}
	}
	vi.put(entry(0))
	for i := 1; i < verdictIndexCap+10; i++ {
		vi.put(entry(i))
		// Keep candidate 0 the most recently used.
		if _, ok := vi.lookup("candidate-0"); !ok {
			t.Fatalf("candidate 0 evicted after %d puts", i+1)
		}
	}
	if n, l := len(vi.entries), vi.lru.Len(); n != verdictIndexCap || l != verdictIndexCap {
		t.Fatalf("index holds %d entries (%d in the LRU) after %d candidates, want %d",
			n, l, verdictIndexCap+10, verdictIndexCap)
	}
	// The ten evicted are the oldest after candidate 0.
	for i := 1; i < verdictIndexCap+10; i++ {
		if _, ok := vi.lookup(fmt.Sprintf("candidate-%d", i)); ok != (i > 10) {
			t.Errorf("candidate %d present = %t, want %t", i, ok, i > 10)
		}
	}
}
