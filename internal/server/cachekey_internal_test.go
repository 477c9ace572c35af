package server

import (
	"reflect"
	"strings"
	"testing"

	"github.com/ioa-lab/boosting"
)

// overKeyed lists the request fields that enter an analysis's cache key but
// move its result on no system the soundness test sweeps: two requests that
// differ in such a field alone get different keys and the same result, so
// the second one rebuilds what the cache already holds. Each entry says why
// the field does not move the result. The test holds the list exact: a
// field over-keyed on every system must be listed, and a listed one must
// neither move a result nor drop out of the key.
var overKeyed = map[string]string{
	"explore/f":            "G(C) holds failure-free executions, and the service resilience only bounds failures",
	"classify/f":           "G(C) holds failure-free executions, and the service resilience only bounds failures",
	"explore/policy":       "G(C) holds failure-free executions, and a silence policy only chooses for a failed endpoint",
	"classify/policy":      "G(C) holds failure-free executions, and a silence policy only chooses for a failed endpoint (the delta tier answers these from the recorded verdict)",
	"explore/maxRounds":    "the round cap bounds the refuters' scheduled runs, and an explore runs none",
	"classify/maxRounds":   "the round cap bounds the refuters' scheduled runs, and a classify runs none",
	"refutekset/maxStates": "RefuteKSet builds no graph: it only runs failure scenarios",
	"refutekset/symmetry":  "RefuteKSet builds no graph: it only runs failure scenarios",
	"refutekset/nograph":   "RefuteKSet builds no graph: it only runs failure scenarios",
	"refute/rounds":        "the round-structured families' refutations read the same at every round count tried (floodset-p, fdboost and evperfect at n <= 3, rounds 1-3)",
	"refutekset/rounds":    "the round-structured families' refutations read the same at every round count tried",
}

// keyedField is one request field the sweep varies: set changes a base
// request in that field alone.
type keyedField struct {
	name string
	set  func(*Request)
}

// keyedFields are the request fields a job's key or result may read: the
// analysis parameters and every Options field.
var keyedFields = []keyedField{
	{"f", func(r *Request) { r.F++ }},
	{"claimed", func(r *Request) { r.Claimed = 2 }},
	{"k", func(r *Request) { r.K = 2 }},
	{"workers", func(r *Request) { r.Options.Workers = 2 }},
	{"maxStates", func(r *Request) { r.Options.MaxStates = 2 }},
	{"store", func(r *Request) { r.Options.Store = "spill" }},
	{"symmetry", func(r *Request) { r.Options.Symmetry = true }},
	{"nograph", func(r *Request) { r.Options.NoGraph = true }},
	{"rounds", func(r *Request) { r.Options.Rounds = 1 }},
	{"maxRounds", func(r *Request) { r.Options.MaxRounds = 1 }},
	{"policy", func(r *Request) { r.Options.Policy = "benign" }},
}

// outcome is what a client reads of a finished job, Explored left out: it
// counts the work a job did, not its verdict, and a delta job answers a
// build's verdict with 0.
type outcome struct {
	Result *Result
	Error  *ErrorPayload
}

// keyAndOutcome computes a valid request's cache key the way a submission
// does and its outcome the way a pool worker of s does, on a fresh job that
// no cache or delta index stands in front of.
func keyAndOutcome(t *testing.T, s *Server, req Request) (string, outcome) {
	t.Helper()
	chk, err := req.validate(s.cfg.SpillDir)
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	key, err := req.cacheKey(chk)
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	j := newJob("soundness", req)
	defer j.cancel()
	res, err := s.analyze(j)
	if err != nil {
		return key, outcome{Error: errorPayload(err)}
	}
	res.Explored = nil
	return key, outcome{Result: res}
}

// differingFields names the fields in which two outcomes differ.
func differingFields(a, b outcome) []string {
	if (a.Error == nil) != (b.Error == nil) {
		return []string{"Error"}
	}
	if a.Error != nil {
		if *a.Error != *b.Error {
			return []string{"Error"}
		}
		return nil
	}
	var out []string
	va, vb := reflect.ValueOf(*a.Result), reflect.ValueOf(*b.Result)
	for i := range va.NumField() {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}

// TestCacheKeySoundness holds the result-cache key to what a job's result
// depends on. For every system, analysis and request field it takes two
// requests that differ in that field alone and compares their keys with
// their results, field for field. Equal keys with different results are
// under-keying — the cache would answer one request with the other's
// verdict — and always fail. Different keys with equal results are
// over-keying — a needless rebuild. A field may be over-keyed on one system
// and move the result on another, and then the key needs it; a field the
// key reads that moves no result anywhere fails unless overKeyed lists it.
func TestCacheKeySoundness(t *testing.T) {
	if n := reflect.TypeOf(Options{}).NumField(); len(keyedFields) != 3+n {
		t.Fatalf("keyedFields varies %d fields, want f, claimed, k and the %d Options fields", len(keyedFields), n)
	}
	s := &Server{cfg: Config{SpillDir: t.TempDir()}}
	systems := []struct {
		protocol string
		n        int
		analyses []string
	}{
		{"forward", 2, allAnalyses},
		{"forward", 3, allAnalyses},
		{"tob", 2, allAnalyses},
		{"registervote", 2, allAnalyses},
		{"setboost", 2, allAnalyses},
		// Its failure-free graph is infinite; the refuters skip it.
		{"floodset-p", 2, []string{AnalysisRefute, AnalysisRefuteKSet}},
	}
	// Per analysis and field: the pairs the key tells apart, and how many of
	// them have equal results.
	keyed, over := map[string]int{}, map[string]int{}
	for _, sys := range systems {
		for _, analysis := range sys.analyses {
			base := Request{Protocol: sys.protocol, N: sys.n, Analysis: analysis}
			if analysis == AnalysisExplore {
				// A bivalent root (α_1): its graph reaches both decisions.
				chk, err := boosting.New(sys.protocol, sys.n, 0)
				if err != nil {
					t.Fatal(err)
				}
				base.Inputs = stringKeyed(boosting.MonotoneAssignment(chk.System(), 1))
			}
			if analysis == AnalysisRefute || analysis == AnalysisRefuteKSet {
				base.Claimed = 1
			}
			if analysis == AnalysisRefuteKSet {
				base.K = 1
			}
			baseKey, baseOut := keyAndOutcome(t, s, base)
			for _, f := range keyedFields {
				variant := base
				f.set(&variant)
				key, out := keyAndOutcome(t, s, variant)
				diff := differingFields(baseOut, out)
				entry := analysis + "/" + f.name
				switch {
				case key == baseKey && len(diff) > 0:
					t.Errorf("%s-n%d/%s/%s: under-keyed: equal keys, results differ in %s",
						sys.protocol, sys.n, analysis, f.name, strings.Join(diff, ", "))
				case key != baseKey:
					keyed[entry]++
					if len(diff) == 0 {
						over[entry]++
					}
				}
			}
		}
	}
	// A field that moves an analysis's result on some system must stay in
	// its key. One that the key reads but that never moves the result is
	// over-keyed, and overKeyed must say so — exactly those.
	for entry, n := range keyed {
		_, listed := overKeyed[entry]
		switch always := over[entry] == n; {
		case always && !listed:
			t.Errorf("over-keyed: %s tells %d pairs apart and never moves the result (list it in overKeyed only if the field cannot)", entry, n)
		case !always && listed:
			t.Errorf("overKeyed lists %s, but it moves the result of %d of %d pairs", entry, n-over[entry], n)
		}
	}
	for entry := range overKeyed {
		if keyed[entry] == 0 {
			t.Errorf("overKeyed lists %s, but the key tells no pair apart there", entry)
		}
	}
}

var allAnalyses = []string{AnalysisExplore, AnalysisClassify, AnalysisRefute, AnalysisRefuteKSet}
