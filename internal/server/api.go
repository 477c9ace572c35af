// Package server implements boostd's checking-as-a-service core: an
// HTTP/JSON API over the boosting façade with a bounded worker pool, a
// result cache keyed by canonical system fingerprint (so renamed-but-
// isomorphic submissions share one entry), and per-job Server-Sent-Event
// progress streams bridged from the façade's WithProgress callback.
package server

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"github.com/ioa-lab/boosting"
	"github.com/ioa-lab/boosting/internal/cliflags"
)

// Analysis names accepted by Request.Analysis.
const (
	AnalysisExplore    = "explore"
	AnalysisClassify   = "classify"
	AnalysisRefute     = "refute"
	AnalysisRefuteKSet = "refutekset"
)

// Options is the JSON option block of a job submission, and the whole of
// a job's options: nothing on the server fills in a field the block leaves
// zero. The zero Workers is the serial engine — the worker pool, not the
// single build, is what keeps the box saturated. Engine options (workers,
// store) never enter the result-cache key: every combination produces the
// same verdict.
type Options struct {
	Workers   int    `json:"workers,omitempty"`
	MaxStates int    `json:"maxStates,omitempty"`
	Store     string `json:"store,omitempty"`
	Symmetry  bool   `json:"symmetry,omitempty"`
	// NoGraph skips the refuters' failure-free graph phases
	// (boosting.WithoutGraphAnalysis). Classify and explore build their
	// graph regardless, so only refute and refutekset key it.
	NoGraph bool `json:"nograph,omitempty"`
	// Rounds is the round count of the round-based families (at most maxN:
	// FloodSet needs at most f+1 <= n rounds).
	Rounds    int `json:"rounds,omitempty"`
	MaxRounds int `json:"maxRounds,omitempty"`
	// Policy is the silence policy: "" or "adversarial" (default), "benign".
	Policy string `json:"policy,omitempty"`
}

// lower resolves the option block to façade options. A zero worker count
// becomes the serial engine: job-level parallelism is the pool's business.
// spillDir is the server's Config.SpillDir, where a spill-store job puts
// its edge file; other stores ignore it.
func (o Options) lower(spillDir string) ([]boosting.Option, error) {
	store, err := cliflags.ParseStore(o.Store)
	if err != nil {
		return nil, err
	}
	workers := o.Workers
	if workers == 0 {
		workers = 1
	}
	opts := []boosting.Option{
		boosting.WithWorkers(workers),
		boosting.WithMaxStates(o.MaxStates),
		boosting.WithStore(store),
	}
	if store == boosting.SpillStore {
		opts = append(opts, boosting.WithSpillDir(spillDir))
	}
	if o.Symmetry {
		opts = append(opts, boosting.WithSymmetry())
	}
	if o.NoGraph {
		opts = append(opts, boosting.WithoutGraphAnalysis())
	}
	if o.Rounds > 0 {
		opts = append(opts, boosting.WithRounds(o.Rounds))
	}
	if o.MaxRounds > 0 {
		opts = append(opts, boosting.WithMaxRounds(o.MaxRounds))
	}
	switch o.Policy {
	case "", "adversarial":
	case "benign":
		opts = append(opts, boosting.WithSilencePolicy(boosting.Benign))
	default:
		return nil, fmt.Errorf("unknown policy %q (have: adversarial, benign)", o.Policy)
	}
	return opts, nil
}

// maxN bounds Request.N: the submit handler computes the cache key, which
// grows with n², before queueing, and 2^17 is the largest refute safety
// sweep the default 200 000-state budget admits. It bounds Options.Rounds
// too: the handler builds the candidate, and the round-based families
// compose n × rounds register services.
const maxN = 17

// Request is one job submission.
type Request struct {
	// Protocol is a registry name (see boosting.Protocols).
	Protocol string `json:"protocol"`
	// N is the process count (group size for setboost), F the service
	// resilience. N is at most maxN.
	N int `json:"n"`
	F int `json:"f"`
	// Analysis selects the check: explore | classify | refute | refutekset.
	Analysis string `json:"analysis"`
	// Claimed is the claimed failure tolerance (refute, refutekset).
	Claimed int `json:"claimed,omitempty"`
	// K is the set-consensus parameter (refutekset).
	K int `json:"k,omitempty"`
	// Inputs is the explore initialization, keyed by decimal process id;
	// omitted means the all-zero assignment.
	Inputs map[string]string `json:"inputs,omitempty"`
	// Options are the engine and construction knobs.
	Options Options `json:"options"`
}

// inputMap converts the JSON string-keyed inputs to process ids.
func (r *Request) inputMap() (map[int]string, error) {
	out := make(map[int]string, len(r.Inputs))
	for k, v := range r.Inputs {
		id, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("inputs key %q is not a process id", k)
		}
		out[id] = v
	}
	return out, nil
}

// validate checks the request against the registry and builds its checker.
// Every rejection is a *badRequestError, found here, at submit time, never
// after queueing.
func (r *Request) validate(spillDir string) (*boosting.Checker, error) {
	if _, ok := protocolInfo(r.Protocol); !ok {
		return nil, &badRequestError{fmt.Sprintf("unknown protocol %q (see GET /v1/protocols)", r.Protocol)}
	}
	if r.N < 1 {
		return nil, &badRequestError{"n must be >= 1"}
	}
	if r.N > maxN {
		return nil, &badRequestError{fmt.Sprintf("n must be <= %d", maxN)}
	}
	if r.F < 0 {
		return nil, &badRequestError{"f must be >= 0"}
	}
	switch r.Analysis {
	case AnalysisExplore, AnalysisClassify:
	case AnalysisRefute:
		if r.Claimed < 1 {
			return nil, &badRequestError{"refute requires claimed >= 1"}
		}
	case AnalysisRefuteKSet:
		if r.Claimed < 1 || r.K < 1 {
			return nil, &badRequestError{"refutekset requires claimed >= 1 and k >= 1"}
		}
	default:
		return nil, &badRequestError{fmt.Sprintf("unknown analysis %q (have: explore, classify, refute, refutekset)", r.Analysis)}
	}
	if r.Options.Rounds > maxN {
		return nil, &badRequestError{fmt.Sprintf("rounds must be <= %d", maxN)}
	}
	opts, err := r.Options.lower(spillDir)
	if err != nil {
		return nil, &badRequestError{err.Error()}
	}
	chk, err := boosting.New(r.Protocol, r.N, r.F, opts...)
	if err != nil {
		return nil, &badRequestError{err.Error()}
	}
	if r.Analysis == AnalysisExplore {
		inputs, err := r.inputMap()
		if err != nil {
			return nil, &badRequestError{err.Error()}
		}
		if _, err := chk.CanonicalRootFingerprint(inputs); err != nil {
			return nil, &badRequestError{err.Error()}
		}
	}
	return chk, nil
}

// cacheKey derives the result-cache key: the candidate's canonical
// fingerprint (structure + canonicalized monotone roots — covers protocol,
// n, f, policy and rounds), the verdict-affecting option tuple (symmetry,
// state budget, round cap) and the analysis parameters. Explore jobs add
// the canonicalized root of their input assignment, so process-renamed
// initializations of symmetric families share an entry; the refuters add
// the graph-phase skip, which no other analysis reads. Engine options —
// workers, store backend — are deliberately absent: every combination
// returns the same verdict.
func (r *Request) cacheKey(chk *boosting.Checker) (string, error) {
	key := fmt.Sprintf("%x|a=%s|sym=%t|ms=%d|mr=%d",
		chk.CanonicalFingerprint(), r.Analysis,
		r.Options.Symmetry, r.Options.MaxStates, r.Options.MaxRounds)
	switch r.Analysis {
	case AnalysisExplore:
		inputs, err := r.inputMap()
		if err != nil {
			return "", err
		}
		root, err := chk.CanonicalRootFingerprint(inputs)
		if err != nil {
			return "", err
		}
		key += fmt.Sprintf("|root=%x", root)
	case AnalysisRefute:
		key += fmt.Sprintf("|c=%d|ng=%t", r.Claimed, r.Options.NoGraph)
	case AnalysisRefuteKSet:
		key += fmt.Sprintf("|c=%d|k=%d|ng=%t", r.Claimed, r.K, r.Options.NoGraph)
	}
	return key, nil
}

// protocolInfo resolves a registry name.
func protocolInfo(name string) (boosting.ProtocolInfo, bool) {
	for _, p := range boosting.Protocols() {
		if p.Name == name {
			return p, true
		}
	}
	return boosting.ProtocolInfo{}, false
}

// badRequestError maps to HTTP 400.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// ErrorPayload is the structured error of a failed job (and of submit-time
// rejections): a stable kind plus the kind-specific fields.
type ErrorPayload struct {
	// Kind is one of "limit", "conflict", "cancelled", "bad-request",
	// "internal"; submissions are also refused with "draining" (503) and
	// "queue-full" (429).
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Limit/Explored are set for kind "limit": the state budget and the
	// partial exploration count when it overflowed.
	Limit    int `json:"limit,omitempty"`
	Explored int `json:"explored,omitempty"`
}

// errorPayload classifies a job error into its structured payload.
func errorPayload(err error) *ErrorPayload {
	var le *boosting.LimitError
	if errors.As(err, &le) {
		return &ErrorPayload{Kind: "limit", Message: err.Error(), Limit: le.Limit, Explored: le.Explored}
	}
	var ce *boosting.ConflictError
	if errors.As(err, &ce) {
		return &ErrorPayload{Kind: "conflict", Message: err.Error()}
	}
	if errors.Is(err, errCancelled) {
		return &ErrorPayload{Kind: "cancelled", Message: err.Error()}
	}
	return &ErrorPayload{Kind: "internal", Message: err.Error()}
}

// Certificate is the JSON rendering of one refutation counterexample.
type Certificate struct {
	Kind        string            `json:"kind"`
	Description string            `json:"description"`
	Inputs      map[string]string `json:"inputs,omitempty"`
	Failed      []int             `json:"failed,omitempty"`
	Decisions   map[string]string `json:"decisions,omitempty"`
	Diverged    bool              `json:"diverged,omitempty"`
}

// Result is the typed outcome of a finished job. Exactly the fields of the
// requested analysis are set; Text carries the engine's human rendering
// byte-for-byte for refutations.
type Result struct {
	Analysis string `json:"analysis"`
	// States/Edges are the built graph's totals (explore, classify, and
	// refutations whose graph phases ran).
	States int `json:"states,omitempty"`
	Edges  int `json:"edges,omitempty"`
	// Valences lists the root valences (explore: the single input root;
	// classify: the n+1 monotone initializations).
	Valences []string `json:"valences,omitempty"`
	// BivalentIndex is classify's first bivalent initialization, or -1.
	BivalentIndex *int `json:"bivalentIndex,omitempty"`
	// Explored, for classify jobs, is the number of states whose successor
	// sets this job computed: the full state count for a build, 0 for a
	// delta job, which answers with a policy variant's recorded verdict.
	// Absent for the other analyses.
	Explored *int `json:"explored,omitempty"`
	// Refutation fields.
	Claimed      *int          `json:"claimed,omitempty"`
	K            *int          `json:"k,omitempty"`
	Violated     *bool         `json:"violated,omitempty"`
	Certificates []Certificate `json:"certificates,omitempty"`
	Text         string        `json:"text,omitempty"`
}

// certJSON converts a façade certificate.
func certJSON(c boosting.Certificate) Certificate {
	out := Certificate{
		Kind:        c.Kind.String(),
		Description: c.Description,
		Failed:      c.Failed,
		Diverged:    c.Diverged,
	}
	if len(c.Inputs) > 0 {
		out.Inputs = stringKeyed(c.Inputs)
	}
	if len(c.Decisions) > 0 {
		out.Decisions = stringKeyed(c.Decisions)
	}
	return out
}

// stringKeyed converts process-id keys to their decimal JSON form.
func stringKeyed(m map[int]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[strconv.Itoa(k)] = v
	}
	return out
}

// valenceStrings renders root valences in root order.
func valenceStrings(vs []boosting.Valence) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// sortedInts returns a sorted copy (stable JSON for set-valued fields).
func sortedInts(in []int) []int {
	out := append([]int(nil), in...)
	sort.Ints(out)
	return out
}
