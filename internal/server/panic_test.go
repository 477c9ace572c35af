package server_test

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ioa-lab/boosting"
	"github.com/ioa-lab/boosting/internal/server"
)

// TestPanickingJobFailsAlone: an analysis that panics on the pool worker,
// mid-build, fails its own job with kind "internal" and nothing else. The
// single-flight joiner and the SSE tail see that same terminal state instead
// of hanging, the cache entry is dropped so a resubmission runs again, the
// one-worker pool still has its worker to run it, and Shutdown returns.
func TestPanickingJobFailsAlone(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Pool: 1})
	var fired atomic.Bool
	reached, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce) // registered after the server's drain, so it runs before it
	srv.SetProgressHook(func(boosting.Progress) {
		if fired.CompareAndSwap(false, true) {
			close(reached)
			<-release
			panic("injected mid-analysis")
		}
	})

	ack, code := postJob(t, ts, classifyForward3)
	if code != http.StatusAccepted || ack.Cached != server.CacheMiss {
		t.Fatalf("submit: status %d, cached %q", code, ack.Cached)
	}
	<-reached // the job is running and holds the only worker
	joiner, code := postJob(t, ts, classifyForward3)
	if code != http.StatusAccepted || joiner.Cached != server.CacheInflight || joiner.ID != ack.ID {
		t.Fatalf("joiner: status %d, cached %q, id %s; want 202 inflight %s", code, joiner.Cached, joiner.ID, ack.ID)
	}
	tail := make(chan []sseEvent, 1)
	go func() { tail <- readEvents(t, ts, ack.ID) }()
	releaseOnce()

	view := waitTerminal(t, ts, joiner.ID)
	if view.Status != server.StatusFailed || view.Error == nil || view.Error.Kind != "internal" {
		t.Fatalf("panicking job ended %s with error %+v, want failed/internal", view.Status, view.Error)
	}
	select {
	case events := <-tail:
		if last := events[len(events)-1]; last.name != string(server.StatusFailed) {
			t.Errorf("SSE tail ended with event %q, want %q", last.name, server.StatusFailed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SSE tail of the panicked job never terminated")
	}

	again, code := postJob(t, ts, classifyForward3)
	if code != http.StatusAccepted || again.Cached != server.CacheMiss || again.ID == ack.ID {
		t.Fatalf("resubmission: status %d, cached %q, id %s; want a fresh miss", code, again.Cached, again.ID)
	}
	if view := waitTerminal(t, ts, again.ID); view.Status != server.StatusDone || view.Result == nil || view.Result.States != 410 {
		t.Fatalf("job after the panic: %s (%v)", view.Status, view.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after a panicked job: %v", err)
	}
}
