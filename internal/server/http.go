package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"github.com/ioa-lab/boosting"
)

// routes builds the v1 API mux, once, at New.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/protocols", s.handleProtocols)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}

// ServeHTTP serves the v1 API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps a submit-path error to its HTTP status and payload.
func writeError(w http.ResponseWriter, err error) {
	var bad *badRequestError
	if errors.As(err, &bad) {
		writeJSON(w, http.StatusBadRequest, map[string]*ErrorPayload{
			"error": {Kind: "bad-request", Message: bad.msg},
		})
		return
	}
	if errors.Is(err, errDraining) {
		writeJSON(w, http.StatusServiceUnavailable, map[string]*ErrorPayload{
			"error": {Kind: "draining", Message: err.Error()},
		})
		return
	}
	if errors.Is(err, errQueueFull) {
		writeJSON(w, http.StatusTooManyRequests, map[string]*ErrorPayload{
			"error": {Kind: "queue-full", Message: err.Error()},
		})
		return
	}
	writeJSON(w, http.StatusInternalServerError, map[string]*ErrorPayload{
		"error": {Kind: "internal", Message: err.Error()},
	})
}

// SubmitResponse acknowledges a POST /v1/jobs.
type SubmitResponse struct {
	ID     string     `json:"id"`
	Status JobStatus  `json:"status"`
	Cached CacheState `json:"cached"`
}

// maxRequestBytes bounds a POST /v1/jobs body. A request names a registry
// protocol, a few integers and at most one input per process, so 1 MiB is
// orders of magnitude above any valid body.
const maxRequestBytes = 1 << 20

// decodeRequest reads one job submission: a field the Request does not
// define is refused, and every failure is a bad request.
func decodeRequest(body io.Reader) (Request, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return Request{}, &badRequestError{"malformed request: " + err.Error()}
	}
	return req, nil
}

// handleSubmit validates and enqueues (or cache-resolves) a job. A body over
// maxRequestBytes fails the decode and is answered like any other malformed
// request.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, err)
		return
	}
	j, state, err := s.submit(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusAccepted
	if state == CacheHit {
		status = http.StatusOK
	}
	writeJSON(w, status, SubmitResponse{ID: j.ID, Status: j.Status(), Cached: state})
}

// JobView is the GET /v1/jobs/{id} body.
type JobView struct {
	ID       string        `json:"id"`
	Protocol string        `json:"protocol"`
	N        int           `json:"n"`
	F        int           `json:"f"`
	Analysis string        `json:"analysis"`
	Status   JobStatus     `json:"status"`
	Levels   int           `json:"levels"`
	Result   *Result       `json:"result,omitempty"`
	Error    *ErrorPayload `json:"error,omitempty"`
}

func jobView(j *Job) JobView {
	progress, status, result, jobErr, _ := j.snapshot(0)
	return JobView{
		ID:       j.ID,
		Protocol: j.Req.Protocol,
		N:        j.Req.N,
		F:        j.Req.F,
		Analysis: j.Req.Analysis,
		Status:   status,
		Levels:   len(progress),
		Result:   result,
		Error:    jobErr,
	}
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]*ErrorPayload{
			"error": {Kind: "not-found", Message: "unknown job " + r.PathValue("id")},
		})
		return nil, false
	}
	return j, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, jobView(j))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.jobs.all()
	out := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, jobView(j))
	}
	writeJSON(w, http.StatusOK, map[string][]JobView{"jobs": out})
}

// handleCancel cancels a queued or running job. Cancelling an already
// terminal job is a no-op acknowledgement. Note that single-flight shares
// one job among identical submissions: cancelling it cancels for everyone
// tailing it.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID, "status": string(j.Status())})
}

func (s *Server) handleProtocols(w http.ResponseWriter, _ *http.Request) {
	type protoView struct {
		Name               string `json:"name"`
		Description        string `json:"description"`
		SkipsGraphAnalysis bool   `json:"skipsGraphAnalysis,omitempty"`
	}
	var out []protoView
	for _, p := range boosting.Protocols() {
		out = append(out, protoView{p.Name, p.Description, p.SkipsGraphAnalysis})
	}
	writeJSON(w, http.StatusOK, map[string][]protoView{"protocols": out})
}

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	Cache        CacheStats        `json:"cache"`
	Explorations int64             `json:"explorations"`
	Jobs         map[JobStatus]int `json:"jobs"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	counts := make(map[JobStatus]int)
	for _, j := range s.jobs.all() {
		counts[j.Status()]++
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Cache:        s.CacheStats(),
		Explorations: s.Explorations(),
		Jobs:         counts,
	})
}
