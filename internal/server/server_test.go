package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ioa-lab/boosting"
	"github.com/ioa-lab/boosting/internal/server"
)

// newTestServer builds a server plus an httptest front end and arranges
// for both to stop at test end.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

// postJob submits a request body and decodes the acknowledgement.
func postJob(t *testing.T, ts *httptest.Server, body string) (server.SubmitResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack server.SubmitResponse
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ack); err != nil {
			t.Fatalf("decode ack %q: %v", raw, err)
		}
	}
	return ack, resp.StatusCode
}

// getJob fetches a job view.
func getJob(t *testing.T, ts *httptest.Server, id string) server.JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) server.JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		view := getJob(t, ts, id)
		switch view.Status {
		case server.StatusDone, server.StatusFailed, server.StatusCancelled:
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, view.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const classifyForward3 = `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify"}`

// TestSubmitValidation: malformed and contradictory submissions are
// rejected at submit time with the right status, never queued.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Pool: 1})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"protocol": `, http.StatusBadRequest},
		{"unknown field", `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "frobnicate": 1}`, http.StatusBadRequest},
		{"unknown protocol", `{"protocol": "paxos", "n": 3, "f": 0, "analysis": "classify"}`, http.StatusBadRequest},
		{"unknown analysis", `{"protocol": "forward", "n": 3, "f": 0, "analysis": "prove"}`, http.StatusBadRequest},
		{"bad n", `{"protocol": "forward", "n": 0, "f": 0, "analysis": "classify"}`, http.StatusBadRequest},
		{"n above the bound", `{"protocol": "forward", "n": 18, "f": 0, "analysis": "classify"}`, http.StatusBadRequest},
		{"rounds above the bound", `{"protocol": "fdboost", "n": 3, "f": 0, "analysis": "refute", "claimed": 1, "options": {"rounds": 18}}`, http.StatusBadRequest},
		{"refute without claim", `{"protocol": "forward", "n": 3, "f": 0, "analysis": "refute"}`, http.StatusBadRequest},
		{"refutekset without k", `{"protocol": "forward", "n": 3, "f": 0, "analysis": "refutekset", "claimed": 1}`, http.StatusBadRequest},
		{"removed option shards", `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"shards": 4}}`, http.StatusBadRequest},
		{"removed store hash64", `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"store": "hash64"}}`, http.StatusBadRequest},
		{"removed store hash128", `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"store": "hash128"}}`, http.StatusBadRequest},
		{"bad store", `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"store": "mmap"}}`, http.StatusBadRequest},
		{"bad policy", `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"policy": "optimistic"}}`, http.StatusBadRequest},
		{"bad input key", `{"protocol": "forward", "n": 3, "f": 0, "analysis": "explore", "inputs": {"p0": "1"}}`, http.StatusBadRequest},
		{"unknown input process", `{"protocol": "forward", "n": 3, "f": 0, "analysis": "explore", "inputs": {"99": "1"}}`, http.StatusBadRequest},
		{"removed option nowitness", `{"protocol": "forward", "n": 3, "f": 0, "analysis": "refute", "claimed": 1, "options": {"nowitness": true}}`, http.StatusBadRequest},
		{"server-side option spilldir", `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"store": "spill", "spilldir": "/tmp"}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if _, code := postJob(t, ts, c.body); code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
	}
	// The refutation the nowitness body asked for runs once the option is
	// left out: no option combination is refused as a conflict any more.
	ack, code := postJob(t, ts, `{"protocol": "forward", "n": 3, "f": 0, "analysis": "refute", "claimed": 1}`)
	if code != http.StatusAccepted {
		t.Fatalf("refute: status %d, want 202", code)
	}
	if view := waitTerminal(t, ts, ack.ID); view.Status != server.StatusDone {
		t.Errorf("refute: %s (%v)", view.Status, view.Error)
	}
}

// TestSubmitOversizedBody: the submit decoder reads at most 1 MiB. A 2 MiB
// body — well-formed JSON all the way, so only the bound can stop it — is
// answered with the typed bad-request payload, and nothing is queued.
func TestSubmitOversizedBody(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Pool: 1})
	body := `{"protocol": "forward", "n": 3, "f": 0, "analysis": "explore", "inputs": {"0": "` +
		strings.Repeat("1", 2<<20) + `"}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var payload map[string]*server.ErrorPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if e := payload["error"]; e == nil || e.Kind != "bad-request" || !strings.Contains(e.Message, "request body too large") {
		t.Errorf("error payload %+v, want kind bad-request naming the oversized body", e)
	}
	if st := srv.CacheStats(); st.Misses != 0 || srv.Explorations() != 0 {
		t.Errorf("oversized submission reached the queue: %+v, %d explorations", st, srv.Explorations())
	}
}

// TestClassifyGoldenAndCacheHit: a classify job reproduces the engine's
// golden forward n=3 counts; resubmitting the identical request is served
// from cache — same job id, hit counter up, zero new explorations.
func TestClassifyGoldenAndCacheHit(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Pool: 2})
	ack, code := postJob(t, ts, classifyForward3)
	if code != http.StatusAccepted || ack.Cached != server.CacheMiss {
		t.Fatalf("first submission: status %d, cached %q; want 202 miss", code, ack.Cached)
	}
	view := waitTerminal(t, ts, ack.ID)
	if view.Status != server.StatusDone || view.Result == nil {
		t.Fatalf("job failed: %s (%v)", view.Status, view.Error)
	}
	if view.Result.States != 410 || view.Result.Edges != 1734 {
		t.Errorf("forward n=3 classify: %d states / %d edges, want 410 / 1734",
			view.Result.States, view.Result.Edges)
	}
	// Anchor the rest of the typed result against a direct façade run.
	chk, err := boosting.New("forward", 3, 0, boosting.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := chk.ClassifyInits()
	if err != nil {
		t.Fatal(err)
	}
	if view.Result.BivalentIndex == nil || *view.Result.BivalentIndex != ref.BivalentIndex {
		t.Errorf("BivalentIndex = %v, want %d", view.Result.BivalentIndex, ref.BivalentIndex)
	}
	if len(view.Result.Valences) != len(ref.Valences) {
		t.Errorf("classify returned %d valences, want %d", len(view.Result.Valences), len(ref.Valences))
	}
	for i, v := range ref.Valences {
		if i < len(view.Result.Valences) && view.Result.Valences[i] != v.String() {
			t.Errorf("valence[%d] = %q, want %q", i, view.Result.Valences[i], v)
		}
	}

	ack2, code := postJob(t, ts, classifyForward3)
	if code != http.StatusOK || ack2.Cached != server.CacheHit {
		t.Fatalf("resubmission: status %d, cached %q; want 200 hit", code, ack2.Cached)
	}
	if ack2.ID != ack.ID {
		t.Errorf("cache hit returned job %s, want the original %s", ack2.ID, ack.ID)
	}
	if got := srv.Explorations(); got != 1 {
		t.Errorf("explorations = %d after a cache hit, want 1", got)
	}
	if stats := srv.CacheStats(); stats.Hits != 1 || stats.Misses != 1 {
		t.Errorf("cache stats = %+v, want hits=1 misses=1", stats)
	}

	// A different engine configuration of the same check shares the entry:
	// workers/store never enter the cache key.
	ack3, code := postJob(t, ts, `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"workers": 2, "store": "spill"}}`)
	if code != http.StatusOK || ack3.Cached != server.CacheHit || ack3.ID != ack.ID {
		t.Errorf("engine-variant resubmission: status %d, cached %q, id %s; want 200 hit %s",
			code, ack3.Cached, ack3.ID, ack.ID)
	}
	// A verdict-affecting variation does not: maxStates enters the key.
	ack4, _ := postJob(t, ts, `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"maxStates": 100000}}`)
	if ack4.Cached != server.CacheMiss {
		t.Errorf("maxStates variant: cached %q, want miss", ack4.Cached)
	}
}

// TestNoGraphKeysOnlyRefuters: nograph skips the refuters' graph phases and
// nothing else, so a classify with it is the classify without it — an exact
// hit with no second exploration — while a refute with it and one without
// are two checks.
func TestNoGraphKeysOnlyRefuters(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Pool: 1})
	ack, _ := postJob(t, ts, classifyForward3)
	if ack.Cached != server.CacheMiss {
		t.Fatalf("classify: cached %q, want miss", ack.Cached)
	}
	if view := waitTerminal(t, ts, ack.ID); view.Status != server.StatusDone {
		t.Fatalf("classify job: %s (%v)", view.Status, view.Error)
	}
	ack2, code := postJob(t, ts, `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"nograph": true}}`)
	if code != http.StatusOK || ack2.Cached != server.CacheHit || ack2.ID != ack.ID {
		t.Errorf("nograph classify: status %d, cached %q, id %s; want 200 hit %s", code, ack2.Cached, ack2.ID, ack.ID)
	}
	if got := srv.Explorations(); got != 1 {
		t.Errorf("explorations = %d after the nograph classify, want 1", got)
	}

	for _, options := range []string{`{}`, `{"nograph": true}`} {
		ack, _ := postJob(t, ts, `{"protocol": "forward", "n": 2, "f": 0, "analysis": "refute", "claimed": 1, "options": `+options+`}`)
		if ack.Cached != server.CacheMiss {
			t.Errorf("refute %s: cached %q, want miss", options, ack.Cached)
		}
		if view := waitTerminal(t, ts, ack.ID); view.Status != server.StatusDone {
			t.Fatalf("refute %s: %s (%v)", options, view.Status, view.Error)
		}
	}
}

// TestSingleFlight: concurrent identical submissions share one job — one
// exploration, one miss, everyone else joins or hits.
func TestSingleFlight(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Pool: 2})
	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			ack, code := postJob(t, ts, classifyForward3)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("client %d: status %d", i, code)
				return
			}
			ids[i] = ack.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("client %d got job %s, client 0 got %s — single-flight broken", i, ids[i], ids[0])
		}
	}
	waitTerminal(t, ts, ids[0])
	if got := srv.Explorations(); got != 1 {
		t.Errorf("explorations = %d for %d identical submissions, want 1", got, clients)
	}
	if stats := srv.CacheStats(); stats.Misses != 1 {
		t.Errorf("cache stats = %+v, want exactly one miss", stats)
	}
}

// TestIsomorphicExploreHit is the acceptance scenario: a process-renamed
// (isomorphic) variant of an already-explored initialization is served
// from cache — the canonical root fingerprint collides, the hit counter
// increments, and no new states are explored.
func TestIsomorphicExploreHit(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Pool: 1})
	submit := func(inputs string) (server.SubmitResponse, int) {
		return postJob(t, ts, fmt.Sprintf(
			`{"protocol": "forward", "n": 3, "f": 0, "analysis": "explore", "inputs": %s, "options": {"symmetry": true}}`,
			inputs))
	}
	ack, code := postJob(t, ts, `{"protocol": "forward", "n": 3, "f": 0, "analysis": "explore", "inputs": {"0": "1", "1": "0", "2": "0"}, "options": {"symmetry": true}}`)
	if code != http.StatusAccepted || ack.Cached != server.CacheMiss {
		t.Fatalf("first exploration: status %d, cached %q", code, ack.Cached)
	}
	first := waitTerminal(t, ts, ack.ID)
	if first.Status != server.StatusDone || first.Result == nil {
		t.Fatalf("first exploration failed: %s (%v)", first.Status, first.Error)
	}

	// The same one-hot assignment under two different process renamings.
	for _, renamed := range []string{
		`{"0": "0", "1": "1", "2": "0"}`,
		`{"0": "0", "1": "0", "2": "1"}`,
	} {
		ack2, code := submit(renamed)
		if code != http.StatusOK || ack2.Cached != server.CacheHit {
			t.Errorf("renamed %s: status %d, cached %q; want 200 hit", renamed, code, ack2.Cached)
			continue
		}
		if ack2.ID != ack.ID {
			t.Errorf("renamed %s: job %s, want the original %s", renamed, ack2.ID, ack.ID)
		}
		got := getJob(t, ts, ack2.ID)
		if got.Result == nil || got.Result.States != first.Result.States || got.Result.Edges != first.Result.Edges {
			t.Errorf("renamed %s: result %+v differs from original %+v", renamed, got.Result, first.Result)
		}
	}
	if got := srv.Explorations(); got != 1 {
		t.Errorf("explorations = %d after isomorphic resubmissions, want 1 (zero new states)", got)
	}
	if stats := srv.CacheStats(); stats.Hits != 2 || stats.Misses != 1 {
		t.Errorf("cache stats = %+v, want hits=2 misses=1", stats)
	}

	// A genuinely different assignment (two ones) is a miss.
	ack3, _ := submit(`{"0": "1", "1": "1", "2": "0"}`)
	if ack3.Cached != server.CacheMiss {
		t.Errorf("two-hot assignment: cached %q, want miss", ack3.Cached)
	}
}

// TestCancel: DELETE cancels a queued job immediately and a running job at
// the engine's next cancellation check; cancelled entries leave the cache
// so a resubmission retries.
func TestCancel(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Pool: 1})
	// registervote n=3 is far beyond this test's patience: it pins the one
	// pool worker for the whole test, making the next submission's queued
	// state deterministic.
	slow := `{"protocol": "registervote", "n": 3, "f": 0, "analysis": "classify"}`
	slowAck, code := postJob(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("slow job: status %d", code)
	}
	queuedAck, code := postJob(t, ts, classifyForward3)
	if code != http.StatusAccepted || queuedAck.Cached != server.CacheMiss {
		t.Fatalf("queued job: status %d, cached %q", code, queuedAck.Cached)
	}

	del := func(id string) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("DELETE %s: status %d", id, resp.StatusCode)
		}
	}
	del(queuedAck.ID)
	view := waitTerminal(t, ts, queuedAck.ID)
	if view.Status != server.StatusCancelled || view.Error == nil || view.Error.Kind != "cancelled" {
		t.Errorf("queued job after DELETE: %s (%v), want cancelled", view.Status, view.Error)
	}

	del(slowAck.ID)
	view = waitTerminal(t, ts, slowAck.ID)
	if view.Status != server.StatusCancelled || view.Error == nil || view.Error.Kind != "cancelled" {
		t.Errorf("running job after DELETE: %s (%v), want cancelled", view.Status, view.Error)
	}

	// Cancelled runs are not cached: resubmission starts fresh.
	ack, _ := postJob(t, ts, classifyForward3)
	if ack.Cached != server.CacheMiss {
		t.Errorf("resubmission after cancel: cached %q, want miss", ack.Cached)
	}
	if ack.ID == queuedAck.ID {
		t.Error("resubmission after cancel reused the cancelled job")
	}
	if view := waitTerminal(t, ts, ack.ID); view.Status != server.StatusDone {
		t.Errorf("retry after cancel: %s (%v)", view.Status, view.Error)
	}
}

// TestLimitError: a state-budget overflow surfaces as a failed job with
// the structured limit payload — and, being deterministic, is cached.
func TestLimitError(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Pool: 1})
	body := `{"protocol": "floodset-p", "n": 3, "f": 0, "analysis": "explore", "inputs": {"0": "0", "1": "1", "2": "1"}, "options": {"rounds": 2, "maxStates": 3000}}`
	ack, code := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	view := waitTerminal(t, ts, ack.ID)
	if view.Status != server.StatusFailed || view.Error == nil {
		t.Fatalf("overflow job: %s (%v), want failed with payload", view.Status, view.Error)
	}
	if view.Error.Kind != "limit" || view.Error.Limit != 3000 || view.Error.Explored != 3000 {
		t.Errorf("limit payload = %+v, want kind=limit limit=3000 explored=3000", view.Error)
	}
	ack2, code := postJob(t, ts, body)
	if code != http.StatusOK || ack2.Cached != server.CacheHit || ack2.ID != ack.ID {
		t.Errorf("overflow resubmission: status %d, cached %q, id %s; want 200 hit %s",
			code, ack2.Cached, ack2.ID, ack.ID)
	}
	if got := srv.Explorations(); got != 1 {
		t.Errorf("explorations = %d, want 1 (overflow verdicts are cached)", got)
	}
}

// TestShutdownDrain: Shutdown stops accepting submissions immediately but
// drains in-flight jobs to completion before returning.
func TestShutdownDrain(t *testing.T) {
	srv := server.New(server.Config{Pool: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ack, code := postJob(t, ts, classifyForward3)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	// Submissions during the drain are rejected with 503.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, code := postJob(t, ts, `{"protocol": "tob", "n": 2, "f": 0, "analysis": "classify"}`)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions still accepted during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-done; err != nil && err != context.DeadlineExceeded {
		t.Fatalf("Shutdown: %v", err)
	}
	if view := getJob(t, ts, ack.ID); view.Status != server.StatusDone {
		t.Errorf("in-flight job after drain: %s (%v), want done", view.Status, view.Error)
	}
}

// TestProtocolsAndStats: the discovery endpoints answer.
func TestProtocolsAndStats(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Pool: 1})
	resp, err := http.Get(ts.URL + "/v1/protocols")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte(`"forward"`)) {
		t.Errorf("GET /v1/protocols: %d %s", resp.StatusCode, raw)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte(`"explorations"`)) {
		t.Errorf("GET /v1/stats: %d %s", resp.StatusCode, raw)
	}
	if _, code := postJob(t, ts, classifyForward3); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte(`"j1"`)) {
		t.Errorf("GET /v1/jobs: %d %s", resp.StatusCode, raw)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/j999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET unknown job: %d, want 404", resp.StatusCode)
		}
	}
}

// TestSpillDirIsADeploymentSetting: a server's SpillDir reaches the jobs
// that chose the spill store and no other. An explicit dense job is accepted
// and built, its spill resubmission is the same check (a hit on the same
// job, one exploration), and a spill job of its own builds its edge file in
// the directory — which an unusable directory shows by failing that job
// alone.
func TestSpillDirIsADeploymentSetting(t *testing.T) {
	spillDir := t.TempDir()
	srv, ts := newTestServer(t, server.Config{Pool: 1, SpillDir: spillDir})
	done := func(body string) (server.SubmitResponse, server.JobView) {
		t.Helper()
		ack, code := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", body, code)
		}
		return ack, waitTerminal(t, ts, ack.ID)
	}
	golden := func(name string, view server.JobView) {
		t.Helper()
		if view.Status != server.StatusDone || view.Result == nil || view.Result.States != 410 || view.Result.Edges != 1734 {
			t.Errorf("%s: %s %+v (%v), want done 410/1734", name, view.Status, view.Result, view.Error)
		}
	}
	ack, view := done(`{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"store": "dense"}}`)
	golden("explicit dense", view)
	// A store variant is the same check: hit.
	ack2, _ := postJob(t, ts, `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"store": "spill"}}`)
	if ack2.Cached != server.CacheHit || ack2.ID != ack.ID {
		t.Errorf("store variant: cached %q id %s, want hit %s", ack2.Cached, ack2.ID, ack.ID)
	}
	if got := srv.Explorations(); got != 1 {
		t.Errorf("explorations = %d, want 1", got)
	}
	_, view = done(`{"protocol": "forward", "n": 3, "f": 1, "analysis": "classify", "options": {"store": "spill"}}`)
	golden("spill f=1", view)
	// The edge file is unlinked at creation: the directory is left empty.
	if left, err := os.ReadDir(spillDir); err != nil || len(left) > 0 {
		t.Errorf("spill directory after the job: %v, %v", left, err)
	}

	missing := filepath.Join(t.TempDir(), "missing")
	_, ts = newTestServer(t, server.Config{Pool: 1, SpillDir: missing})
	_, view = done(classifyForward3)
	golden("dense beside an unusable spill directory", view)
	_, view = done(`{"protocol": "forward", "n": 3, "f": 1, "analysis": "classify", "options": {"store": "spill"}}`)
	if view.Status != server.StatusFailed || view.Error == nil || !strings.Contains(view.Error.Message, missing) {
		t.Errorf("spill job in an unusable directory: %s (%+v), want failed naming %s", view.Status, view.Error, missing)
	}
}

// TestDeltaCacheTier is the delta-match acceptance scenario: a classify
// job records its verdict; the benign-policy variant of the same candidate —
// an exact-key miss — is acknowledged as a "delta" submission and answered
// with that verdict, which is the variant's own (a silence policy only
// matters once an endpoint has failed, and G(C) holds failure-free
// executions): the cold build's verdict, zero states explored, and still
// one job run per submission.
func TestDeltaCacheTier(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Pool: 1})
	ack, code := postJob(t, ts, classifyForward3)
	if code != http.StatusAccepted || ack.Cached != server.CacheMiss {
		t.Fatalf("first submission: status %d, cached %q; want 202 miss", code, ack.Cached)
	}
	full := waitTerminal(t, ts, ack.ID)
	if full.Status != server.StatusDone || full.Result == nil {
		t.Fatalf("full build failed: %s (%v)", full.Status, full.Error)
	}
	if full.Result.Explored == nil || *full.Result.Explored != full.Result.States {
		t.Errorf("full build Explored = %v, want %d", full.Result.Explored, full.Result.States)
	}

	ack2, code := postJob(t, ts, classifyForward3Benign)
	if code != http.StatusAccepted || ack2.Cached != server.CacheDelta {
		t.Fatalf("benign variant: status %d, cached %q; want 202 delta", code, ack2.Cached)
	}
	if ack2.ID == ack.ID {
		t.Fatal("delta submission reused the original job")
	}
	view := waitTerminal(t, ts, ack2.ID)
	if view.Status != server.StatusDone || view.Result == nil {
		t.Fatalf("delta job failed: %s (%v)", view.Status, view.Error)
	}
	if view.Result.States != full.Result.States || view.Result.Edges != full.Result.Edges {
		t.Errorf("delta verdict %d/%d, want %d/%d",
			view.Result.States, view.Result.Edges, full.Result.States, full.Result.Edges)
	}
	if view.Result.BivalentIndex == nil || full.Result.BivalentIndex == nil ||
		*view.Result.BivalentIndex != *full.Result.BivalentIndex {
		t.Errorf("delta BivalentIndex = %v, want %v", view.Result.BivalentIndex, full.Result.BivalentIndex)
	}
	if !reflect.DeepEqual(view.Result.Valences, full.Result.Valences) {
		t.Errorf("delta valences %v, want %v", view.Result.Valences, full.Result.Valences)
	}
	if view.Result.Explored == nil || *view.Result.Explored != 0 {
		t.Errorf("benign delta Explored = %v, want 0 (the verdict is the recorded one)", view.Result.Explored)
	}
	if got := srv.Explorations(); got != 2 {
		t.Errorf("explorations = %d, want 2 (the delta job runs as a job)", got)
	}
	if stats := srv.CacheStats(); stats.DeltaHits != 1 || stats.Misses != 2 {
		t.Errorf("cache stats = %+v, want deltaHits=1 misses=2", stats)
	}
	// The stats endpoint surfaces the tier.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(raw, []byte(`"deltaHits": 1`)) {
		t.Errorf("GET /v1/stats does not report the delta hit: %s", raw)
	}

	// Resubmitting the benign variant is now an exact hit.
	ack3, code := postJob(t, ts, classifyForward3Benign)
	if code != http.StatusOK || ack3.Cached != server.CacheHit || ack3.ID != ack2.ID {
		t.Errorf("benign resubmission: status %d, cached %q, id %s; want 200 hit %s",
			code, ack3.Cached, ack3.ID, ack2.ID)
	}
}

const classifyForward3Benign = `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"policy": "benign"}}`

// TestDeltaEligibility: which submissions the delta tier serves. Any
// classify is eligible, whatever its store and nograph — neither changes a
// classify verdict. The other analyses stay plain misses. Each row submits
// a body, waits for it, then submits its benign-policy variant.
func TestDeltaEligibility(t *testing.T) {
	for _, tc := range []struct {
		name       string
		analysis   string // the JSON fields after "f"
		options    string // the option block, without the policy
		wantCached server.CacheState
		explored   bool // whether the variant's result reports Explored
	}{
		{"dense classify", `"analysis": "classify"`, `"store": "dense"`, server.CacheDelta, true},
		{"spill classify", `"analysis": "classify"`, `"store": "spill"`, server.CacheDelta, true},
		{"nograph classify", `"analysis": "classify"`, `"nograph": true`, server.CacheDelta, true},
		{"explore", `"analysis": "explore", "inputs": {"0": "1"}`, `"store": "dense"`, server.CacheMiss, false},
		{"refute", `"analysis": "refute", "claimed": 1`, `"store": "dense"`, server.CacheMiss, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, server.Config{Pool: 1})
			body := func(policy string) string {
				return fmt.Sprintf(`{"protocol": "forward", "n": 2, "f": 0, %s, "options": {%s%s}}`, tc.analysis, tc.options, policy)
			}
			ack, code := postJob(t, ts, body(""))
			if code != http.StatusAccepted || ack.Cached != server.CacheMiss {
				t.Fatalf("base: status %d, cached %q; want 202 miss", code, ack.Cached)
			}
			if view := waitTerminal(t, ts, ack.ID); view.Status != server.StatusDone {
				t.Fatalf("base job: %s (%v)", view.Status, view.Error)
			}
			ack2, _ := postJob(t, ts, body(`, "policy": "benign"`))
			if ack2.Cached != tc.wantCached {
				t.Errorf("benign variant: cached %q, want %q", ack2.Cached, tc.wantCached)
			}
			view := waitTerminal(t, ts, ack2.ID)
			if view.Status != server.StatusDone || view.Result == nil {
				t.Fatalf("variant job: %s (%v)", view.Status, view.Error)
			}
			if got := view.Result.Explored != nil; got != tc.explored {
				t.Errorf("variant Explored present = %t, want %t", got, tc.explored)
			}
		})
	}
}

// TestDeltaParity: on every row TestPolicyVariantGraphIdentical holds the
// benign and adversarial graphs identical, the delta tier's answer to the
// benign variant equals a fresh benign build's result field for field,
// Explored aside (0 against the state count). registervote and setboost
// take no policy, so there the benign body is the adversarial candidate
// itself: an exact hit, which must agree just the same.
func TestDeltaParity(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
	}{{"forward", 2}, {"forward", 3}, {"tob", 2}, {"registervote", 2}, {"setboost", 2}} {
		for f := 0; f <= c.n; f++ {
			t.Run(fmt.Sprintf("%s-n%d-f%d", c.name, c.n, f), func(t *testing.T) {
				body := func(policy string) string {
					return fmt.Sprintf(`{"protocol": %q, "n": %d, "f": %d, "analysis": "classify", "options": {"policy": %q}}`,
						c.name, c.n, f, policy)
				}
				result := func(ts *httptest.Server, body string, wantCached server.CacheState) *server.Result {
					t.Helper()
					ack, _ := postJob(t, ts, body)
					if ack.Cached != wantCached {
						t.Fatalf("cached %q, want %q", ack.Cached, wantCached)
					}
					view := waitTerminal(t, ts, ack.ID)
					if view.Status != server.StatusDone || view.Result == nil || view.Result.Explored == nil {
						t.Fatalf("job %s: %s (%v), result %+v", ack.ID, view.Status, view.Error, view.Result)
					}
					return view.Result
				}
				variantCached := server.CacheDelta
				if identity(t, c.name, c.n, f, boosting.Adversarial) == identity(t, c.name, c.n, f, boosting.Benign) {
					variantCached = server.CacheHit
				}
				_, variants := newTestServer(t, server.Config{Pool: 1})
				result(variants, body("adversarial"), server.CacheMiss)
				delta := result(variants, body("benign"), variantCached)
				_, fresh := newTestServer(t, server.Config{Pool: 1})
				want := result(fresh, body("benign"), server.CacheMiss)
				if variantCached == server.CacheDelta && *delta.Explored != 0 {
					t.Errorf("delta answer Explored = %d, want 0", *delta.Explored)
				}
				if *want.Explored != want.States {
					t.Errorf("fresh build Explored = %d, want %d", *want.Explored, want.States)
				}
				delta.Explored, want.Explored = nil, nil
				if !reflect.DeepEqual(delta, want) {
					t.Errorf("delta answer %+v (bivalent %d)\nfresh build  %+v (bivalent %d)",
						delta, *delta.BivalentIndex, want, *want.BivalentIndex)
				}
			})
		}
	}
}

// identity is a candidate's canonical fingerprint under a silence policy.
func identity(t *testing.T, name string, n, f int, p boosting.SilencePolicy) string {
	t.Helper()
	chk, err := boosting.New(name, n, f, boosting.WithSilencePolicy(p))
	if err != nil {
		t.Fatal(err)
	}
	return string(chk.CanonicalFingerprint())
}
