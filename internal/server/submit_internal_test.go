package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ioa-lab/boosting"
)

// post submits body and decodes the answer: the acknowledgement on 2xx, the
// error payload otherwise.
func post(t *testing.T, ts *httptest.Server, body string) (int, SubmitResponse, *ErrorPayload) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack SubmitResponse
	var rejected map[string]*ErrorPayload
	if resp.StatusCode/100 == 2 {
		err = json.NewDecoder(resp.Body).Decode(&ack)
	} else {
		err = json.NewDecoder(resp.Body).Decode(&rejected)
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ack, rejected["error"]
}

// waitDone waits for a job to finish and requires it done.
func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s stuck in %s", j.ID, j.Status())
	}
	if st := j.Status(); st != StatusDone {
		t.Fatalf("job %s ended %s", j.ID, st)
	}
}

// TestQueueFull: a submission the full queue cannot take is answered 429
// queue-full. It registers no job and counts neither a miss nor a delta hit,
// although its body would be a delta-tier hit. Once the queue drains, the
// same body is a fresh submission that runs.
func TestQueueFull(t *testing.T) {
	srv := New(Config{Pool: 1})
	ts := httptest.NewServer(srv)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(func() {
		releaseOnce()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	const adversarial = `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify"}`
	const benign = `{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"policy": "benign"}}`

	// Record the adversarial verdict, so the benign body is a delta hit.
	code, ack, _ := post(t, ts, adversarial)
	if code != http.StatusAccepted {
		t.Fatalf("adversarial: status %d", code)
	}
	committed, _ := srv.jobs.get(ack.ID)
	waitDone(t, committed)

	// Hold the only worker inside a running job, then fill the queue with
	// jobs cancelled while queued (the worker skips them).
	reached := make(chan struct{})
	var held sync.Once
	srv.progressHook = func(boosting.Progress) {
		held.Do(func() {
			close(reached)
			<-release
		})
	}
	code, ack, _ = post(t, ts, `{"protocol": "tob", "n": 2, "f": 0, "analysis": "classify"}`)
	if code != http.StatusAccepted {
		t.Fatalf("holder: status %d", code)
	}
	holder, _ := srv.jobs.get(ack.ID)
	<-reached
	for len(srv.queue) < cap(srv.queue) {
		filler := newJob("filler", Request{})
		filler.finish(StatusCancelled, nil, nil)
		srv.queue <- filler
	}

	code, _, payload := post(t, ts, benign)
	if code != http.StatusTooManyRequests || payload == nil || payload.Kind != "queue-full" {
		t.Fatalf("full queue: status %d, error %+v; want 429 queue-full", code, payload)
	}
	if n := len(srv.jobs.all()); n != 2 {
		t.Errorf("%d jobs listed after the rejection, want 2", n)
	}
	if st := srv.CacheStats(); st.Misses != 2 || st.DeltaHits != 0 {
		t.Errorf("stats after the rejection: %+v, want 2 misses, 0 delta hits", st)
	}

	releaseOnce()
	waitDone(t, holder)
	// The holder is done before the worker takes the next job; wait until it
	// has skipped the cancelled fillers.
	timeout := time.After(60 * time.Second)
	for len(srv.queue) > 0 {
		select {
		case <-timeout:
			t.Fatalf("%d fillers still queued", len(srv.queue))
		case <-time.After(time.Millisecond):
		}
	}
	code, ack, _ = post(t, ts, benign)
	if code != http.StatusAccepted || ack.Cached != CacheDelta {
		t.Fatalf("resubmission: status %d, cached %q; want 202 delta", code, ack.Cached)
	}
	resubmitted, _ := srv.jobs.get(ack.ID)
	waitDone(t, resubmitted)
	if st := srv.CacheStats(); st.Misses != 3 || st.DeltaHits != 1 {
		t.Errorf("stats after the resubmission: %+v, want 3 misses, 1 delta hit", st)
	}
}

// TestSubmitChecksBounded: validation and the cache key run on the HTTP
// handler's goroutine, at most Pool of them at once. With every slot taken —
// filled directly, the way TestQueueFull fills the queue — a submission
// registers no job: it returns once its context is cancelled, and it goes
// through once a slot frees.
func TestSubmitChecksBounded(t *testing.T) {
	srv := New(Config{Pool: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	for len(srv.checking) < cap(srv.checking) {
		srv.checking <- struct{}{}
	}
	req, err := decodeRequest(strings.NewReader(`{"protocol": "forward", "n": 2, "f": 0, "analysis": "classify"}`))
	if err != nil {
		t.Fatal(err)
	}
	submitted := make(chan error, 1)
	submit := func(ctx context.Context) {
		go func() {
			_, _, err := srv.submit(ctx, req)
			submitted <- err
		}()
	}
	blocked := func(what string) {
		t.Helper()
		select {
		case err := <-submitted:
			t.Fatalf("%s: the submission returned %v while every slot was taken", what, err)
		case <-time.After(50 * time.Millisecond):
		}
		if n := len(srv.jobs.all()); n != 0 {
			t.Fatalf("%s: %d jobs registered while every slot was taken", what, n)
		}
	}
	returned := func(what string) error {
		t.Helper()
		select {
		case err := <-submitted:
			return err
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: the submission did not return", what)
			return nil
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	submit(ctx)
	blocked("cancelled")
	cancel()
	if err := returned("cancelled"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled while waiting: %v, want context.Canceled", err)
	}
	if n := len(srv.jobs.all()); n != 0 {
		t.Errorf("a cancelled submission registered %d jobs", n)
	}

	submit(context.Background())
	blocked("waiting")
	<-srv.checking
	if err := returned("freed"); err != nil {
		t.Fatalf("once a slot freed: %v", err)
	}
	if n := len(srv.jobs.all()); n != 1 {
		t.Errorf("%d jobs registered once a slot freed, want 1", n)
	}
	if n := len(srv.checking); n != cap(srv.checking)-1 {
		t.Errorf("%d slots taken after the submission, want its slot back (%d)", n, cap(srv.checking)-1)
	}
}

// FuzzSubmitRequest feeds arbitrary bodies through what POST /v1/jobs does
// before queueing — decode, validate, cacheKey. Nothing may panic, every
// rejection is a bad request (400), and a request that validates has a cache
// key.
func FuzzSubmitRequest(f *testing.F) {
	for _, seed := range []string{
		`{"protocol": "fdboost", "n": 17, "f": 0, "analysis": "classify", "options": {"rounds": 18}}`,
		`{"protocol": "forward", "n": 18, "f": 0, "analysis": "classify"}`,
		`{"protocol": "forward", "n": 3, "f": 0, "analysis": "explore", "inputs": {"0": "1", "2": "0"}, "options": {"symmetry": true}}`,
		`{"protocol": "setboost", "n": 2, "f": 0, "analysis": "refutekset", "claimed": 3, "k": 2}`,
		`{"protocol": "forward", "n": 3, "f": 0, "analysis": "refute", "claimed": 1, "options": {"nowitness": true}}`,
		`{"protocol": "floodset-p", "n": 3, "f": 0, "analysis": "refute", "claimed": 1, "options": {"rounds": 2, "maxRounds": 500, "policy": "benign"}}`,
		`{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"store": "dense", "spilldir": "x"}}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeRequest(strings.NewReader(body))
		if err == nil {
			var chk *boosting.Checker
			if chk, err = req.validate(""); err == nil {
				if _, err := req.cacheKey(chk); err != nil {
					t.Fatalf("validated request has no cache key: %v", err)
				}
				return
			}
		}
		if _, ok := err.(*badRequestError); !ok {
			t.Fatalf("rejection %T (%v) is not a 4xx", err, err)
		}
	})
}

// TestStaleSettleKeepsResubmission: a job cancelled while queued is settled
// by cancelJob, and again when the worker dequeues it. If its body was
// resubmitted in between, the second settle must leave the resubmission's
// cache entry alone, so the resubmission's verdict is cached: a third
// identical submission is a hit on it, with no further exploration.
func TestStaleSettleKeepsResubmission(t *testing.T) {
	srv := New(Config{Pool: 1})
	ts := httptest.NewServer(srv)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(func() {
		releaseOnce()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	const body = `{"protocol": "forward", "n": 3, "f": 1, "analysis": "classify"}`

	// Hold the only worker inside a running job.
	reached := make(chan struct{})
	var held sync.Once
	srv.progressHook = func(boosting.Progress) {
		held.Do(func() {
			close(reached)
			<-release
		})
	}
	code, ack, _ := post(t, ts, `{"protocol": "tob", "n": 2, "f": 0, "analysis": "classify"}`)
	if code != http.StatusAccepted {
		t.Fatalf("holder: status %d", code)
	}
	holder, _ := srv.jobs.get(ack.ID)
	<-reached

	code, ack, _ = post(t, ts, body)
	if code != http.StatusAccepted || ack.Cached != CacheMiss {
		t.Fatalf("first submission: status %d, cached %q; want 202 miss", code, ack.Cached)
	}
	cancelled, _ := srv.jobs.get(ack.ID)
	srv.cancelJob(cancelled)
	code, ack, _ = post(t, ts, body)
	if code != http.StatusAccepted || ack.Cached != CacheMiss || ack.ID == cancelled.ID {
		t.Fatalf("resubmission: status %d, cached %q, id %s; want 202 miss with a new job", code, ack.Cached, ack.ID)
	}
	resubmitted, _ := srv.jobs.get(ack.ID)

	releaseOnce()
	waitDone(t, holder)
	waitDone(t, resubmitted)
	code, ack, _ = post(t, ts, body)
	if code != http.StatusOK || ack.Cached != CacheHit || ack.ID != resubmitted.ID {
		t.Errorf("third submission: status %d, cached %q, id %s; want 200 hit on %s", code, ack.Cached, ack.ID, resubmitted.ID)
	}
	if n := srv.Explorations(); n != 2 {
		t.Errorf("%d explorations, want 2 (the holder and the resubmission)", n)
	}
}

// TestSubmitReplacesUncacheableEntry: between a job's finish and its settle,
// its cache entry is terminal but not yet dropped. A cancelled job there is
// no verdict: the next submission of its key is a miss that replaces the
// entry with a new job, never a hit on the cancelled one.
func TestSubmitReplacesUncacheableEntry(t *testing.T) {
	c := newResultCache(0)
	first := newJob("j1", Request{})
	if _, state, err := c.submit("k", func() (*Job, error) { return first, nil }); err != nil || state != CacheMiss {
		t.Fatalf("first submission: %q, %v; want a miss", state, err)
	}
	first.finish(StatusCancelled, nil, nil)
	second := newJob("j2", Request{})
	j, state, err := c.submit("k", func() (*Job, error) { return second, nil })
	if err != nil || state != CacheMiss || j != second {
		t.Fatalf("after the cancel: %q on %s, %v; want a miss on the new job", state, j.ID, err)
	}
	if st := c.stats(); st.Entries != 1 || st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats %+v, want 1 entry, 0 hits, 2 misses", st)
	}
}
