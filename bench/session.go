package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ioa-lab/boosting/internal/server"
)

// The boostd-session workload. A round starts a fresh in-process boostd
// (internal/server behind net/http on a loopback port), lets sessionClients
// clients each run one session against it concurrently, and stops it. An
// op is one client's session: 3 + 3×sessionRepeats submissions, each a POST
// /v1/jobs followed by the job's event stream tailed to its terminal event.
const (
	sessionClients = 2
	sessionN       = 4
	sessionRepeats = 4 // resubmissions of each of the three distinct requests
)

// Request kinds, in the order a session first issues them.
const (
	kindCold    = "cold"    // classify, adversarial: full build, committed durably
	kindDelta   = "delta"   // classify, benign: reopen the committed graph and recheck
	kindExplore = "explore" // explore from a seeded input vector: full dense build
	kindHit     = "hit"     // any of the three resubmitted: served from the result cache
)

// sessionRequest is one generated submission and what the server must
// answer to it.
type sessionRequest struct {
	kind       string
	body       []byte
	wantCached server.CacheState
	want       expectation
}

// genSession generates client k's session from the seeded source: the
// explore input vector (weight 1–3, seeded positions), a seeded process
// renaming of it for every explore resubmission, and the order of the
// resubmissions. Client k checks forward n=4 with f=k, so the clients'
// candidates — and their cache entries and graph directories — differ.
func genSession(rng *rand.Rand, exp expectedTable, client int) ([]sessionRequest, error) {
	wantClassify, err := exp.get("boostd-session/classify")
	if err != nil {
		return nil, err
	}
	weight := 1 + rng.Intn(sessionN-1)
	wantExplore, err := exp.get("boostd-session/explore-w" + strconv.Itoa(weight))
	if err != nil {
		return nil, err
	}
	marshal := func(req server.Request) []byte {
		req.Protocol, req.N, req.F = "forward", sessionN, client
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a struct of strings, ints and bools always marshals
		}
		return body
	}
	// inputs draws a weight-w vector: every such vector is a process
	// renaming of every other, so all of them share one cache entry.
	inputs := func() map[string]string {
		in := make(map[string]string, sessionN)
		for i, p := range rng.Perm(sessionN) {
			v := "0"
			if i < weight {
				v = "1"
			}
			in[strconv.Itoa(p)] = v
		}
		return in
	}
	cold := marshal(server.Request{Analysis: server.AnalysisClassify})
	delta := marshal(server.Request{Analysis: server.AnalysisClassify, Options: server.Options{Policy: "benign"}})
	reqs := []sessionRequest{
		{kind: kindCold, body: cold, wantCached: server.CacheMiss, want: wantClassify},
		{kind: kindDelta, body: delta, wantCached: server.CacheDelta, want: wantClassify},
		{kind: kindExplore, body: marshal(server.Request{Analysis: server.AnalysisExplore, Inputs: inputs()}),
			wantCached: server.CacheMiss, want: wantExplore},
	}
	var hits []sessionRequest
	for i := 0; i < sessionRepeats; i++ {
		hits = append(hits,
			sessionRequest{kind: kindHit, body: cold, wantCached: server.CacheHit, want: wantClassify},
			sessionRequest{kind: kindHit, body: delta, wantCached: server.CacheHit, want: wantClassify},
			sessionRequest{kind: kindHit, body: marshal(server.Request{Analysis: server.AnalysisExplore, Inputs: inputs()}),
				wantCached: server.CacheHit, want: wantExplore})
	}
	rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
	return append(reqs, hits...), nil
}

// requestSample is the per-request record behind the server.* layer
// metrics.
type requestSample struct {
	kind       string
	total      time.Duration // POST sent → terminal event read
	ack        time.Duration // POST sent → acknowledgement decoded
	firstEvent time.Duration // GET events sent → first event line read
	explored   int           // result.explored (-1 when absent)
	cachedOK   bool          // the ack's cached value was the expected one
}

// roundSample is the per-round record: the untimed server lifecycle and
// the work the server reports having done.
type roundSample struct {
	start, shutdown time.Duration
	explorations    int64
}

// sessionInstance runs rounds and keeps their samples until drained.
type sessionInstance struct {
	e *env

	mu       sync.Mutex
	requests []requestSample
	rounds   []roundSample
}

func openSession(e *env, _ *workload) (instance, error) {
	// Fail set-up, not the first op, when a golden is missing.
	if _, err := genSession(rand.New(rand.NewSource(0)), e.exp, 0); err != nil {
		return nil, err
	}
	return &sessionInstance{e: e}, nil
}

func (s *sessionInstance) close() error { return nil }

// layers reports the server.* metrics of the requests and rounds recorded
// since the previous call.
func (s *sessionInstance) layers(values layerValues) {
	s.mu.Lock()
	reqs, rounds := s.requests, s.rounds
	s.requests, s.rounds = nil, nil
	s.mu.Unlock()
	if len(rounds) == 0 {
		return
	}
	var (
		total              = map[string][]float64{}
		acks, firsts       []float64
		explored           []float64
		hitsOK, deltasOK   int
		starts, shutdowns  []float64
		explorationsPerSes []float64
	)
	for _, r := range reqs {
		total[r.kind] = append(total[r.kind], ms(r.total))
		acks = append(acks, ms(r.ack))
		firsts = append(firsts, ms(r.firstEvent))
		switch {
		case r.kind == kindHit && r.cachedOK:
			hitsOK++
		case r.kind == kindDelta && r.cachedOK:
			deltasOK++
		}
		if r.kind == kindDelta && r.explored >= 0 {
			explored = append(explored, float64(r.explored))
		}
	}
	for _, r := range rounds {
		starts = append(starts, ms(r.start))
		shutdowns = append(shutdowns, ms(r.shutdown))
		explorationsPerSes = append(explorationsPerSes, float64(r.explorations)/sessionClients)
	}
	sessions := float64(len(rounds) * sessionClients)
	values["server.cold_ms_p50"] = median(total[kindCold])
	values["server.delta_ms_p50"] = median(total[kindDelta])
	values["server.explore_ms_p50"] = median(total[kindExplore])
	values["server.hit_ms_p50"] = median(total[kindHit])
	values["server.hit_ms_p90"] = quantileOf(total[kindHit], 0.9)
	values["server.ack_ms_p50"] = median(acks)
	values["server.sse_first_event_ms_p50"] = median(firsts)
	if cold := values["server.cold_ms_p50"]; cold > 0 {
		values["server.delta_over_cold"] = values["server.delta_ms_p50"] / cold
	}
	values["server.delta_explored"] = median(explored)
	values["server.hit_share"] = float64(hitsOK) / (sessions * 3 * sessionRepeats)
	values["server.delta_share"] = float64(deltasOK) / sessions
	values["server.explorations_per_session"] = median(explorationsPerSes)
	values["server.start_ms"] = median(starts)
	values["server.shutdown_ms"] = median(shutdowns)
}

func failAll(err error) []opResult {
	out := make([]opResult, sessionClients)
	for i := range out {
		out[i].err = err
	}
	return out
}

func (s *sessionInstance) round(tr *tracer) ([]opResult, time.Duration) {
	// Inputs are drawn here, on one goroutine, so a seed fixes them
	// whatever the clients' interleaving.
	sessions := make([][]sessionRequest, sessionClients)
	for k := range sessions {
		reqs, err := genSession(s.e.rng, s.e.exp, k)
		if err != nil {
			return failAll(err), 0
		}
		sessions[k] = reqs
	}
	graphRoot, err := os.MkdirTemp(s.e.tmp, "boostd-")
	if err != nil {
		return failAll(err), 0
	}
	defer os.RemoveAll(graphRoot)

	startAt := time.Now()
	srv := server.New(server.Config{Pool: sessionClients, GraphRoot: graphRoot})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return failAll(err), 0
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	sample := roundSample{start: time.Since(startAt)}
	base := "http://" + ln.Addr().String()

	results := make([]opResult, sessionClients)
	timed := time.Now()
	var wg sync.WaitGroup
	for k := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[k] = s.session(tr, base, sessions[k])
		}()
	}
	wg.Wait()
	wall := time.Since(timed)

	if stats, err := fetchStats(base); err != nil {
		results[0].err = errors.Join(results[0].err, err)
	} else {
		sample.explorations = stats.Explorations
	}
	stopAt := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = errors.Join(hs.Shutdown(ctx), srv.Shutdown(ctx))
	if serveErr := <-served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	sample.shutdown = time.Since(stopAt)
	if err != nil {
		results[0].err = errors.Join(results[0].err, fmt.Errorf("server shutdown: %w", err))
	}
	s.mu.Lock()
	s.rounds = append(s.rounds, sample)
	s.mu.Unlock()
	return results, wall
}

// session is one op: the client's requests in order on one keep-alive
// connection, each checked against its golden.
func (s *sessionInstance) session(tr *tracer, base string, reqs []sessionRequest) opResult {
	transport := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	start := time.Now()
	root := tr.op()
	var firstErr error
	for i, req := range reqs {
		sp := root.child("request." + req.kind)
		sample, err := doRequest(sp, client, base, req)
		sp.end()
		s.mu.Lock()
		s.requests = append(s.requests, sample)
		s.mu.Unlock()
		if err != nil {
			firstErr = fmt.Errorf("request %d (%s): %w", i+1, req.kind, err)
			break
		}
	}
	root.end()
	return opResult{dur: time.Since(start), err: firstErr}
}

// doRequest submits one job and tails its event stream to the terminal
// event, then checks the acknowledged cache state and the typed result.
func doRequest(sp spanRef, client *http.Client, base string, req sessionRequest) (requestSample, error) {
	sample := requestSample{kind: req.kind, explored: -1}
	start := time.Now()

	submit := sp.child("http.submit")
	ack, err := postJob(client, base, req.body)
	submit.end()
	sample.ack = time.Since(start)
	if err != nil {
		return sample, err
	}
	sample.cachedOK = ack.Cached == req.wantCached

	events := sp.child("http.events.done")
	eventsAt := time.Now()
	first := events.child("http.events.first")
	result, err := tailEvents(client, base+"/v1/jobs/"+ack.ID+"/events", func() {
		first.end()
		sample.firstEvent = time.Since(eventsAt)
	})
	events.end()
	sample.total = time.Since(start)
	if err != nil {
		return sample, err
	}
	if result.Explored != nil {
		sample.explored = *result.Explored
	}
	if !sample.cachedOK {
		return sample, fmt.Errorf("acknowledged cached=%q, want %q", ack.Cached, req.wantCached)
	}
	return sample, req.want.check(verdict{
		States:        result.States,
		Edges:         result.Edges,
		Valences:      result.Valences,
		BivalentIndex: result.BivalentIndex,
	})
}

func postJob(client *http.Client, base string, body []byte) (server.SubmitResponse, error) {
	var ack server.SubmitResponse
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return ack, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return ack, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return ack, fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &ack); err != nil {
		return ack, fmt.Errorf("POST /v1/jobs: %w", err)
	}
	return ack, nil
}

// tailEvents reads a job's Server-Sent-Event stream to its terminal event
// and returns the done event's result. onFirst fires when the first event
// line arrives. The stream is read to EOF so the connection is reusable.
func tailEvents(client *http.Client, url string, onFirst func()) (*server.Result, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET events: %s", resp.Status)
	}
	var (
		event  string
		result *server.Result
		seen   bool
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			if !seen {
				seen = true
				onFirst()
			}
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || event == "progress" {
			continue
		}
		if event != string(server.StatusDone) {
			return nil, fmt.Errorf("job ended %s: %s", event, data)
		}
		result = new(server.Result)
		if err := json.Unmarshal([]byte(data), result); err != nil {
			return nil, fmt.Errorf("done event: %w", err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if result == nil {
		return nil, errors.New("event stream ended without a terminal event")
	}
	return result, nil
}

// statsClient fetches /v1/stats outside the timed interval; no keep-alive,
// so no connection outlives the round's server.
var statsClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

func fetchStats(base string) (server.StatsResponse, error) {
	var stats server.StatsResponse
	resp, err := statsClient.Get(base + "/v1/stats")
	if err != nil {
		return stats, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return stats, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return stats, nil
}
