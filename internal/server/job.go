package server

import (
	"context"
	"fmt"
	"sync"

	"github.com/ioa-lab/boosting"
)

// JobStatus is the lifecycle state of a checking job. Transitions are
// queued → running → one of the terminal states (done, failed, cancelled);
// a job cancelled while still queued skips running.
type JobStatus string

// Job lifecycle states.
const (
	StatusQueued    JobStatus = "queued"
	StatusRunning   JobStatus = "running"
	StatusDone      JobStatus = "done"
	StatusFailed    JobStatus = "failed"
	StatusCancelled JobStatus = "cancelled"
)

// terminal reports whether a status is final.
func terminal(s JobStatus) bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Job is one submitted checking run. All mutable fields are guarded by mu;
// progress is append-only history, so SSE subscribers replay it by index
// and the exploration goroutine never waits for a slow client — appending
// takes the mutex briefly and signals subscribers without blocking.
type Job struct {
	ID  string `json:"id"`
	Req Request

	cancel context.CancelFunc
	ctx    context.Context
	// cacheKey is the result-cache key this job computes for; set once at
	// submission, before the job is visible to any other goroutine.
	cacheKey string
	// Delta-tier routing, set next to cacheKey under the same visibility
	// rule: deltaKey is an eligible classify job's policy-blind index key;
	// delta, when non-nil, the recorded verdict of a policy variant to
	// answer from instead of building, once the job's roots match it.
	deltaKey string
	delta    *verdictEntry

	mu       sync.Mutex
	status   JobStatus
	progress []boosting.Progress
	result   *Result
	jobErr   *ErrorPayload
	// updated is closed and replaced on every mutation — a broadcast that
	// costs the writer one channel allocation and never blocks.
	updated chan struct{}
	// done is closed once, at the terminal transition, for drain waits.
	done chan struct{}
}

func newJob(id string, req Request) *Job {
	// Deliberately detached from the submitting request's context: a job
	// outlives the HTTP POST that created it and is cancelled through its
	// own handle (DELETE /v1/jobs/{id}, server drain), never by the
	// submitter hanging up.
	ctx, cancel := context.WithCancel(context.Background()) //lint:boostvet-ignore ctxflow — job lifetime is owned by the server, not the submitting request
	return &Job{
		ID:      id,
		Req:     req,
		ctx:     ctx,
		cancel:  cancel,
		status:  StatusQueued,
		updated: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// notify wakes every subscriber. Callers hold mu.
func (j *Job) notify() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// appendProgress records one per-level exploration report. It is the
// WithProgress bridge: called serially by the engine's coordinating
// goroutine, it appends under the mutex and returns — slow SSE readers
// catch up from the history and can never stall the build.
func (j *Job) appendProgress(p boosting.Progress) {
	j.mu.Lock()
	j.progress = append(j.progress, p)
	j.notify()
	j.mu.Unlock()
}

// setRunning moves a queued job to running; it reports false when the job
// already reached a terminal state (cancelled while queued).
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminal(j.status) {
		return false
	}
	j.status = StatusRunning
	j.notify()
	return true
}

// finish records the terminal outcome exactly once.
func (j *Job) finish(status JobStatus, res *Result, jobErr *ErrorPayload) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminal(j.status) {
		return
	}
	j.status = status
	j.result = res
	j.jobErr = jobErr
	j.notify()
	close(j.done)
}

// Status returns the current lifecycle state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// snapshot returns the progress history from index `from` on, the current
// status/result/error, and the channel that signals the next mutation. The
// returned slice aliases append-only history and is safe to read unlocked.
func (j *Job) snapshot(from int) ([]boosting.Progress, JobStatus, *Result, *ErrorPayload, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var items []boosting.Progress
	if from < len(j.progress) {
		items = j.progress[from:len(j.progress):len(j.progress)]
	}
	return items, j.status, j.result, j.jobErr, j.updated
}

// jobStore is the in-memory job registry. Jobs are kept for the lifetime of
// the process: terminal records are the cache's backing store and the audit
// trail of what the server computed.
type jobStore struct {
	mu   sync.RWMutex
	next int
	jobs map[string]*Job
	ids  []string // insertion order, for listing
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*Job)}
}

// add registers a new job under a fresh sequential id.
func (s *jobStore) add(req Request) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	id := fmt.Sprintf("j%d", s.next)
	j := newJob(id, req)
	s.jobs[id] = j
	s.ids = append(s.ids, id)
	return j
}

// get looks a job up by id.
func (s *jobStore) get(id string) (*Job, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.jobs[id]
	return j, ok
}

// all returns the jobs in submission order.
func (s *jobStore) all() []*Job {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Job, 0, len(s.ids))
	for _, id := range s.ids {
		out = append(out, s.jobs[id])
	}
	return out
}
