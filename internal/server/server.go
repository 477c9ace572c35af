package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/ioa-lab/boosting"
)

// errCancelled marks a job terminated by DELETE or server shutdown.
var errCancelled = errors.New("job cancelled")

// Config sizes the server.
type Config struct {
	// Pool is the number of concurrently running jobs (0 = one per CPU).
	// Jobs default to the serial engine, so pool × serial builds is the
	// CPU-fair saturation point; submissions asking for their own worker
	// fan-out trade against pool width.
	Pool int
	// CacheSize bounds the result cache in entries (0 = 1024).
	CacheSize int
	// Defaults are the option values jobs inherit when their JSON option
	// block leaves a field zero — boostd lowers its shared engine flag
	// block (-store, -workers, -symmetry, …) into this.
	Defaults Options
	// GraphRoot is ignored.
	//
	// Deprecated: the delta-match cache tier keeps the verdicts of
	// finished classify builds in memory and is always on; no job writes
	// a graph to disk.
	GraphRoot string
}

// Server is the checking service: an http.Handler over a job store, a
// bounded worker pool and the canonical-fingerprint result cache. Create
// with New, serve with any http.Server, stop with Shutdown.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	jobs  *jobStore
	cache *resultCache
	queue chan *Job
	// checking holds one token per submission inside validate and
	// cacheKey, which run on the HTTP handler's goroutine: Pool of them at
	// most, so concurrent submissions cannot take every CPU before the
	// pool's queue sees them.
	checking chan struct{}
	queueMu  sync.Mutex
	closed   bool
	draining atomic.Bool
	wg       sync.WaitGroup
	// explorations counts jobs that actually ran an analysis — the
	// denominator that proves cache hits explore zero new states.
	explorations atomic.Int64
	// verdicts is the delta tier's index of recorded classify verdicts;
	// deltaHits counts submissions routed to one.
	verdicts  *verdictIndex
	deltaHits atomic.Int64
	// progressHook is nil outside this package's tests, which set it before
	// submitting to misbehave on a pool worker in the middle of an analysis.
	progressHook func(boosting.Progress)
}

// defaultCacheSize bounds the result cache when -cache is unset.
const defaultCacheSize = 1024

// queueCap bounds the submission queue; submissions beyond it are rejected
// with 429 rather than blocking the HTTP handler.
const queueCap = 1024

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Pool <= 0 {
		cfg.Pool = runtime.NumCPU()
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = defaultCacheSize
	}
	s := &Server{
		cfg:      cfg,
		jobs:     newJobStore(),
		cache:    newResultCache(cfg.CacheSize),
		queue:    make(chan *Job, queueCap),
		checking: make(chan struct{}, cfg.Pool),
		verdicts: newVerdictIndex(verdictIndexCap),
	}
	s.mux = s.routes()
	s.wg.Add(cfg.Pool)
	for i := 0; i < cfg.Pool; i++ {
		go s.worker()
	}
	return s
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// enqueue builds a job with mk and hands it to the pool, or, without
// calling mk, answers errDraining once Shutdown closed the queue and
// errQueueFull when it has no room. Every send happens under queueMu and
// workers only receive, so room seen here is still there at the send.
func (s *Server) enqueue(mk func() *Job) (*Job, error) {
	s.queueMu.Lock()
	defer s.queueMu.Unlock()
	if s.closed {
		return nil, errDraining
	}
	if len(s.queue) == cap(s.queue) {
		return nil, errQueueFull
	}
	j := mk()
	s.queue <- j
	return j, nil
}

// submit validates a request, resolves it against the result cache and, on
// a miss, queues a fresh job. The returned job is shared on hits and
// single-flight joins. A miss the queue cannot take registers no job and
// counts nothing, so a later resubmission is a fresh miss. Validation and
// the cache key wait for one of Pool slots, or until ctx is done.
func (s *Server) submit(ctx context.Context, req Request) (*Job, CacheState, error) {
	if s.draining.Load() {
		return nil, "", errDraining
	}
	key, err := s.check(ctx, &req)
	if err != nil {
		return nil, "", err
	}
	fresh := func() *Job {
		j := s.jobs.add(req)
		j.cacheKey = key
		if deltaEligible(&req) {
			// Delta tier: the job records its verdict under the policy-blind
			// key, and a recorded policy variant — same delta key, different
			// exact key — answers in place of a build. Both fields are set
			// here, before the job is visible to any worker.
			j.deltaKey = req.deltaKey()
			if e, ok := s.verdicts.lookup(j.deltaKey); ok && e.exactKey != key {
				j.delta = e
			}
		}
		return j
	}
	j, state, err := s.cache.submit(key, func() (*Job, error) { return s.enqueue(fresh) })
	if err != nil {
		return nil, "", err
	}
	if state == CacheMiss && j.delta != nil {
		state = CacheDelta
		s.deltaHits.Add(1)
	}
	return j, state, nil
}

// check runs validate and cacheKey, which cost up to tens of milliseconds of
// CPU on the largest requests, holding one of the Pool slots of s.checking.
func (s *Server) check(ctx context.Context, req *Request) (string, error) {
	select {
	case s.checking <- struct{}{}:
	case <-ctx.Done():
		return "", ctx.Err()
	}
	defer func() { <-s.checking }()
	chk, err := req.validate(s.cfg.Defaults)
	if err != nil {
		return "", err
	}
	key, err := req.cacheKey(chk)
	if err != nil {
		return "", &badRequestError{err.Error()}
	}
	return key, nil
}

// errDraining maps to HTTP 503, errQueueFull to 429.
var (
	errDraining  = errors.New("server is draining; not accepting jobs")
	errQueueFull = errors.New("job queue is full; retry later")
)

// run executes one job on a pool worker: bridge progress into the job's
// history, run the analysis under the job's context, close every graph the
// analysis returned on every exit path, and settle the cache entry — also
// when the analysis panics, which fails this job and nothing else.
func (s *Server) run(j *Job) {
	if !j.setRunning() {
		// Cancelled while queued: never explored, never cacheable.
		s.cache.settle(j)
		return
	}
	if err := j.ctx.Err(); err != nil {
		j.finish(StatusCancelled, nil, errorPayload(fmt.Errorf("%w before start", errCancelled)))
		s.cache.settle(j)
		return
	}
	s.explorations.Add(1)
	res, err := s.analyze(j)
	var status JobStatus
	var payload *ErrorPayload
	switch {
	case err == nil:
		status = StatusDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		status = StatusCancelled
		payload = errorPayload(fmt.Errorf("%w: %v", errCancelled, err))
	default:
		status = StatusFailed
		payload = errorPayload(err)
	}
	j.finish(status, res, payload)
	s.cache.settle(j)
}

// analyze dispatches the job's analysis through a checker rebuilt with the
// job's progress bridge and cancellation context layered on top of its
// validated options. A panic on the way — the engine's, a protocol
// handler's — comes back as an error of kind "internal" once the deferred
// closes here and in BuildGraph have released what the analysis opened, so
// run settles the job and the worker returns to the queue.
func (s *Server) analyze(j *Job) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("boostd: job %s: panic during %s: %v\n%s", j.ID, j.Req.Analysis, r, debug.Stack())
			res, err = nil, fmt.Errorf("panic during %s: %v", j.Req.Analysis, r)
		}
	}()
	opts, err := j.Req.Options.lower()
	if err != nil {
		return nil, err
	}
	progress := func(p boosting.Progress) {
		j.appendProgress(p)
		if s.progressHook != nil {
			s.progressHook(p)
		}
	}
	opts = append(opts, boosting.WithProgress(progress), boosting.WithContext(j.ctx))
	chk, err := boosting.New(j.Req.Protocol, j.Req.N, j.Req.F, opts...)
	if err != nil {
		return nil, err
	}
	switch j.Req.Analysis {
	case AnalysisExplore:
		inputs, err := j.Req.inputMap()
		if err != nil {
			return nil, err
		}
		g, err := chk.Explore(inputs)
		if err != nil {
			return nil, err
		}
		defer closeGraph(g)
		valences := make([]boosting.Valence, 0, len(g.Roots()))
		for _, r := range g.Roots() {
			valences = append(valences, g.Valence(r))
		}
		return &Result{
			Analysis: j.Req.Analysis,
			States:   g.Size(),
			Edges:    g.Edges(),
			Valences: valenceStrings(valences),
		}, nil
	case AnalysisClassify:
		return s.classify(j, chk)
	case AnalysisRefute, AnalysisRefuteKSet:
		var report *boosting.Report
		if j.Req.Analysis == AnalysisRefute {
			report, err = chk.Refute(j.Req.Claimed)
		} else {
			report, err = chk.RefuteKSet(j.Req.K, j.Req.Claimed)
		}
		if err != nil {
			return nil, err
		}
		res := &Result{Analysis: j.Req.Analysis, Text: report.String()}
		claimed := report.Claimed
		res.Claimed = &claimed
		if j.Req.Analysis == AnalysisRefuteKSet {
			k := j.Req.K
			res.K = &k
		}
		violated := report.Violated()
		res.Violated = &violated
		for _, c := range report.Certificates {
			c.Failed = sortedInts(c.Failed)
			res.Certificates = append(res.Certificates, certJSON(c))
		}
		if report.Inits != nil {
			defer closeGraph(report.Inits.Graph)
			res.States = report.Inits.Graph.Size()
			res.Edges = report.Inits.Graph.Edges()
			res.Valences = valenceStrings(report.Inits.Valences)
			idx := report.Inits.BivalentIndex
			res.BivalentIndex = &idx
		}
		return res, nil
	default:
		return nil, fmt.Errorf("unknown analysis %q", j.Req.Analysis)
	}
}

// classify runs the Lemma 4 sweep for a job. A delta job whose monotone
// roots equal its entry's answers with a copy of the recorded verdict and
// explores nothing; on a mismatch the entry is dropped. Every other job
// builds in full and, when eligible, records its verdict and roots for
// later policy variants.
func (s *Server) classify(j *Job, chk *boosting.Checker) (*Result, error) {
	var roots [][]byte
	if j.deltaKey != "" {
		var err error
		if roots, err = monotoneRoots(chk); err != nil {
			return nil, err
		}
	}
	if e := j.delta; e != nil {
		if slices.EqualFunc(roots, e.roots, bytes.Equal) {
			out := verdictCopy(e.result)
			out.Explored = new(int)
			return out, nil
		}
		s.verdicts.drop(e)
	}
	res, err := chk.ClassifyInits()
	if err != nil {
		return nil, err
	}
	defer closeGraph(res.Graph)
	idx := res.BivalentIndex
	explored := res.Graph.Size()
	out := &Result{
		Analysis:      j.Req.Analysis,
		States:        res.Graph.Size(),
		Edges:         res.Graph.Edges(),
		Valences:      valenceStrings(res.Valences),
		BivalentIndex: &idx,
		Explored:      &explored,
	}
	if j.deltaKey != "" {
		s.verdicts.put(&verdictEntry{
			deltaKey: j.deltaKey,
			exactKey: j.cacheKey,
			roots:    roots,
			result:   verdictCopy(out),
		})
	}
	return out, nil
}

// closeGraph releases a graph's backend resources (spill descriptors),
// tolerating nil.
func closeGraph(g *boosting.Graph) {
	if g != nil {
		_ = boosting.CloseGraph(g)
	}
}

// cancel cancels a job's context. Queued jobs terminate without running;
// running jobs unwind at the engine's next cancellation check.
func (s *Server) cancelJob(j *Job) {
	j.cancel()
	// A queued job has no worker to observe the context: finish it here.
	// Running jobs are finished by their worker (finish is idempotent).
	j.mu.Lock()
	queued := j.status == StatusQueued
	j.mu.Unlock()
	if queued {
		j.finish(StatusCancelled, nil, errorPayload(fmt.Errorf("%w while queued", errCancelled)))
		s.cache.settle(j)
	}
}

// Explorations reports how many jobs actually ran an analysis (cache hits
// and single-flight joins never increment it).
func (s *Server) Explorations() int64 { return s.explorations.Load() }

// CacheStats snapshots the result-cache counters, folding in the delta
// tier's hit count.
func (s *Server) CacheStats() CacheStats {
	st := s.cache.stats()
	st.DeltaHits = s.deltaHits.Load()
	return st
}

// Shutdown gracefully stops the server: new submissions are rejected
// immediately, queued and running jobs drain until ctx expires, then every
// remaining job context is cancelled and the pool is awaited — spill-backed
// graphs are closed by the job runner on every exit path, including this
// one. Call after (or instead of) http.Server.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.queueMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.queueMu.Unlock()

	stopped := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			for _, j := range s.jobs.all() {
				s.cancelJob(j)
			}
		case <-stopped:
		}
	}()
	s.wg.Wait()
	close(stopped)
	return ctx.Err()
}
