package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Spans of one op share a trace id; parent is the span id that
// caused this one (0 for the root span "op"). Times are nanoseconds since
// the tracer was created: they order spans within a run and never enter a
// checker input or report.
type span struct {
	Trace   int64  `json:"trace"`
	Span    int64  `json:"span"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off state: every method is a cheap no-op, so the timed runs and
// the traced run execute the same code.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	traces int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef addresses one open (or finished) span of a tracer.
type spanRef struct {
	t   *tracer
	idx int
}

// op opens the root span of a new trace: one request-to-verdict unit.
func (t *tracer) op() spanRef { return t.root("op") }

// root opens the root span of a new trace under the given name.
func (t *tracer) root(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.openLocked(t.traces, 0, name)
}

func (t *tracer) openLocked(trace, parent int64, name string) spanRef {
	t.spans = append(t.spans, span{
		Trace:   trace,
		Span:    int64(len(t.spans) + 1),
		Parent:  parent,
		Name:    name,
		StartNs: int64(time.Since(t.epoch)),
	})
	return spanRef{t: t, idx: len(t.spans) - 1}
}

// child opens a span caused by s.
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	p := s.t.spans[s.idx]
	return s.t.openLocked(p.Trace, p.Span, name)
}

// end closes the span.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := int64(time.Since(s.t.epoch))
	s.t.mu.Lock()
	s.t.spans[s.idx].EndNs = now
	s.t.mu.Unlock()
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err = enc.Encode(sp); err != nil {
			break
		}
	}
	return errors.Join(err, w.Flush(), f.Close())
}

// spanTotals aggregates spans by name.
type spanTotals struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// selfTimes computes, per span name, the total duration and the self time:
// a span's duration minus the part of its interval its direct children
// cover (overlapping children are counted once, and a child is clipped to
// its parent's interval).
func selfTimes(spans []span) []spanTotals {
	children := make(map[int64][]span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	byName := make(map[string]*spanTotals)
	for _, sp := range spans {
		tot := byName[sp.Name]
		if tot == nil {
			tot = &spanTotals{Name: sp.Name}
			byName[sp.Name] = tot
		}
		dur := sp.EndNs - sp.StartNs
		tot.Count++
		tot.TotalNs += dur
		tot.SelfNs += dur - covered(sp, children[sp.Span])
	}
	out := make([]spanTotals, 0, len(byName))
	for _, tot := range byName {
		out = append(out, *tot)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	cursor := parent.StartNs
	for _, k := range kids {
		start, end := max(k.StartNs, cursor), min(k.EndNs, parent.EndNs)
		if end > start {
			total += end - start
			cursor = end
		}
	}
	return total
}

// printSpanTable renders the per-name totals of a traced run.
func printSpanTable(w io.Writer, spans []span) {
	fmt.Fprintf(w, "  %-28s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, tot := range selfTimes(spans) {
		fmt.Fprintf(w, "  %-28s %8d %12.3f %12.3f\n", tot.Name, tot.Count,
			float64(tot.TotalNs)/1e6, float64(tot.SelfNs)/1e6)
	}
}
