package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ioa-lab/boosting"
	"github.com/ioa-lab/boosting/internal/server"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data []byte
}

// readEvents consumes a text/event-stream until the handler closes it (the
// stream ends with the job's terminal event).
func readEvents(t *testing.T, ts *httptest.Server, id string) []sseEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading event stream: %v", err)
	}
	return events
}

// TestSSEGolden is the acceptance contract of the progress bridge: the SSE
// event stream of a cache miss is the serial engine's WithProgress callback
// sequence, byte-for-byte under the one wire encoder, terminated by a done
// event carrying the typed result.
func TestSSEGolden(t *testing.T) {
	// Reference sequence: the same build run directly, serially, with the
	// callback collected.
	var want []boosting.Progress
	chk, err := boosting.New("forward", 3, 0,
		boosting.WithWorkers(1),
		boosting.WithProgress(func(p boosting.Progress) { want = append(want, p) }))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := chk.ClassifyInits()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference run produced no progress callbacks")
	}

	_, ts := newTestServer(t, server.Config{Pool: 1})
	ack, code := postJob(t, ts, classifyForward3)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	// Subscribe while the job runs; replay semantics make the full history
	// arrive regardless of how the subscription races the build.
	events := readEvents(t, ts, ack.ID)
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	last := events[len(events)-1]
	progress := events[:len(events)-1]

	if len(progress) != len(want) {
		t.Fatalf("stream carried %d progress events, want %d", len(progress), len(want))
	}
	for i, ev := range progress {
		if ev.name != "progress" {
			t.Fatalf("event %d named %q, want progress", i, ev.name)
		}
		if wire := server.MarshalProgress(want[i]); !bytes.Equal(ev.data, wire) {
			t.Errorf("progress event %d = %s, want %s (byte-for-byte)", i, ev.data, wire)
		}
	}
	if last.name != string(server.StatusDone) {
		t.Fatalf("terminal event named %q, want done", last.name)
	}
	var res server.Result
	if err := json.Unmarshal(last.data, &res); err != nil {
		t.Fatalf("terminal event data %s: %v", last.data, err)
	}
	if res.States != ref.Graph.Size() || res.Edges != ref.Graph.Edges() {
		t.Errorf("terminal result %d/%d, want %d/%d",
			res.States, res.Edges, ref.Graph.Size(), ref.Graph.Edges())
	}

	// A second subscription after completion replays the identical stream.
	replay := readEvents(t, ts, ack.ID)
	if len(replay) != len(events) {
		t.Fatalf("replay carried %d events, want %d", len(replay), len(events))
	}
	for i := range events {
		if replay[i].name != events[i].name || !bytes.Equal(replay[i].data, events[i].data) {
			t.Errorf("replay event %d = (%s, %s), want (%s, %s)",
				i, replay[i].name, replay[i].data, events[i].name, events[i].data)
		}
	}
}

// TestSSEFailedEvent: a job that overflows its budget terminates its stream
// with a failed event carrying the structured limit payload.
func TestSSEFailedEvent(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Pool: 1})
	ack, code := postJob(t, ts, `{"protocol": "floodset-p", "n": 3, "f": 0, "analysis": "explore", "inputs": {"0": "0", "1": "1", "2": "1"}, "options": {"rounds": 2, "maxStates": 3000}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	events := readEvents(t, ts, ack.ID)
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	last := events[len(events)-1]
	if last.name != string(server.StatusFailed) {
		t.Fatalf("terminal event named %q, want failed", last.name)
	}
	var payload server.ErrorPayload
	if err := json.Unmarshal(last.data, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Kind != "limit" || payload.Limit != 3000 || payload.Explored != 3000 {
		t.Errorf("terminal payload = %+v, want kind=limit 3000/3000", payload)
	}
}

// TestSSESlowReader: a subscriber that never reads stalls only its own
// connection — the exploration appends to the job's history and completes;
// backpressure is by replay, never by blocking the producer.
func TestSSESlowReader(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Pool: 1})
	ack, code := postJob(t, ts, classifyForward3)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	// A raw connection that sends the subscription and then goes silent:
	// nothing ever reads the response bytes.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/jobs/%s/events HTTP/1.1\r\nHost: stalled\r\nAccept: text/event-stream\r\n\r\n", ack.ID)

	view := waitTerminal(t, ts, ack.ID)
	if view.Status != server.StatusDone || view.Result == nil || view.Result.States != 410 {
		t.Fatalf("job behind a stalled subscriber: %s (%v)", view.Status, view.Error)
	}
	// And a live subscriber still gets the whole stream.
	events := readEvents(t, ts, ack.ID)
	if len(events) == 0 || events[len(events)-1].name != string(server.StatusDone) {
		t.Errorf("live subscriber after stalled one: %d events", len(events))
	}
}

// TestSSEDisconnectMidStream: a subscriber that hangs up while the job runs
// takes its handler with it and nothing else — the job still ends done, and
// a later subscriber gets the whole stream.
func TestSSEDisconnectMidStream(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Pool: 1})
	var fired atomic.Bool
	reached, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce) // registered after the server's drain, so it runs before it
	srv.SetProgressHook(func(boosting.Progress) {
		if fired.CompareAndSwap(false, true) {
			close(reached)
			<-release
		}
	})
	ack, code := postJob(t, ts, classifyForward3)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-reached // the job is running, held after its first progress report

	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+ack.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || line != "event: progress\n" {
		t.Fatalf("first stream line %q (%v), want the replayed progress event", line, err)
	}
	hangUp()
	resp.Body.Close()
	if view := getJob(t, ts, ack.ID); view.Status != server.StatusRunning {
		t.Fatalf("job %s before release, want running", view.Status)
	}
	releaseOnce()

	view := waitTerminal(t, ts, ack.ID)
	if view.Status != server.StatusDone || view.Result == nil || view.Result.States != 410 {
		t.Fatalf("job after its subscriber hung up: %s (%v)", view.Status, view.Error)
	}
	events := readEvents(t, ts, ack.ID)
	if len(events) == 0 || events[len(events)-1].name != string(server.StatusDone) {
		t.Errorf("subscriber after the hang-up: %d events, want a stream ending done", len(events))
	}
}
