// Package explore is a typed stub of the real
// github.com/ioa-lab/boosting/internal/explore for the boostvet golden
// tests: the atest harness type-checks it under that import path so the
// analyzers' type- and path-matching behaves exactly as on the real tree.
package explore

type StateID uint32

type Graph struct {
	size int
}

func (g *Graph) Size() int { return g.size }

func CloseGraphStore(g *Graph) error { return nil }

type InitClassification struct {
	BivalentIndex int
	Roots         []StateID
	Graph         *Graph
}

func (c *InitClassification) Close() error { return CloseGraphStore(c.Graph) }

type Report struct {
	Claimed      int
	Inits        *InitClassification
	Certificates []string
}

func (r *Report) Violated() bool { return len(r.Certificates) > 0 }

func (r *Report) Close() error { return r.Inits.Close() }

func BuildGraph() (*Graph, error) { return &Graph{}, nil }

func OpenGraph(dir string) (*Graph, error) { return &Graph{}, nil }
