// Package boosting is a typed stub of the real façade package for the
// boostvet golden tests, type-checked under the module root import path.
// The aliases mirror the real types.go so analyzers must see through
// them, exactly as on the real tree.
package boosting

import "github.com/ioa-lab/boosting/internal/explore"

type (
	Graph              = explore.Graph
	InitClassification = explore.InitClassification
	Report             = explore.Report
	StateID            = explore.StateID
)

func CloseGraph(g *Graph) error { return explore.CloseGraphStore(g) }

type Checker struct{}

func NewChecker() (*Checker, error) { return &Checker{}, nil }

func (c *Checker) Explore() (*Graph, error) { return explore.BuildGraph() }

func (c *Checker) ClassifyInits() (*InitClassification, error) {
	g, err := explore.BuildGraph()
	if err != nil {
		return nil, err
	}
	return &InitClassification{Graph: g}, nil
}

func (c *Checker) Refute(claim int) (*Report, error) {
	inits, err := c.ClassifyInits()
	if err != nil {
		return nil, err
	}
	return &Report{Claimed: claim, Inits: inits}, nil
}

func (c *Checker) OpenGraph(dir string) (*Graph, error) { return explore.OpenGraph(dir) }
