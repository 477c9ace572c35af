package boosting

import (
	"fmt"
	"strings"

	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/symmetry"
	"github.com/ioa-lab/boosting/internal/system"
)

// ProtocolInfo describes one entry of the protocol registry.
type ProtocolInfo struct {
	// Name is the registry key accepted by New.
	Name string
	// Description is a one-line summary of the candidate family.
	Description string
	// SkipsGraphAnalysis reports that the family's failure-free reachable
	// graph is infinite (its failure detectors push suspicion responses
	// unconditionally), so Refute goes straight to the failure scenarios.
	SkipsGraphAnalysis bool
}

// protocolSpec couples registry metadata with a builder. The builder
// receives the resolved option config for the policy and rounds knobs.
// sym, when non-nil, declares the family's process-renaming symmetry for
// WithSymmetry; families whose states embed process ids beyond the
// declared renaming rules leave it nil and always explore unreduced.
type protocolSpec struct {
	info  ProtocolInfo
	build func(n, f int, c *config) (*system.System, error)
	sym   func(n, f int) symmetry.Spec
}

// roundsOr resolves the rounds knob: an explicit WithRounds wins, otherwise
// the protocol's natural default.
func roundsOr(c *config, def int) int {
	if c.rounds > 0 {
		return c.rounds
	}
	return def
}

// registry lists the candidate families, in presentation order.
var registry = []protocolSpec{
	{
		info: ProtocolInfo{
			Name:        "forward",
			Description: "n processes forwarding to one f-resilient consensus object (Theorem 2 family)",
		},
		build: func(n, f int, c *config) (*system.System, error) {
			return protocols.BuildForward(n, f, c.policy)
		},
		sym: func(n, _ int) symmetry.Spec { return protocols.ForwardSymmetry(n) },
	},
	{
		info: ProtocolInfo{
			Name:        "tob",
			Description: "n processes deciding via an f-resilient totally ordered broadcast service (Theorem 9 family)",
		},
		build: func(n, f int, c *config) (*system.System, error) {
			return protocols.BuildTOBConsensus(n, f, c.policy)
		},
		sym: func(n, _ int) symmetry.Spec { return protocols.TOBSymmetry(n) },
	},
	{
		info: ProtocolInfo{
			Name:        "registervote",
			Description: "naive register-only vote; loses safety in the failure-free graph (FLP corner of Theorem 2)",
		},
		build: func(n, _ int, _ *config) (*system.System, error) {
			return protocols.BuildRegisterVote(n)
		},
		sym: func(n, _ int) symmetry.Spec { return protocols.RegisterVoteSymmetry(n) },
	},
	{
		info: ProtocolInfo{
			Name:        "setboost",
			Description: "Section 4 boost: wait-free 2n-process 2-set consensus from two wait-free n-process consensus services (n = group size)",
		},
		build: func(n, _ int, _ *config) (*system.System, error) {
			return protocols.BuildSetBoost(n)
		},
		sym: func(n, _ int) symmetry.Spec { return protocols.SetBoostSymmetry(n) },
	},
	{
		info: ProtocolInfo{
			Name:               "floodset-p",
			Description:        "FloodSet over registers with one f-resilient all-connected perfect failure detector (Theorem 10 family; rounds default n)",
			SkipsGraphAnalysis: true,
		},
		build: func(n, f int, c *config) (*system.System, error) {
			return protocols.BuildFloodSetWithP(n, f, roundsOr(c, n), c.policy)
		},
	},
	{
		info: ProtocolInfo{
			Name:               "fdboost",
			Description:        "Section 6.3 boost: FloodSet with pairwise 1-resilient 2-process perfect failure detectors (rounds default n)",
			SkipsGraphAnalysis: true,
		},
		build: func(n, _ int, c *config) (*system.System, error) {
			return protocols.BuildFDBoost(n, roundsOr(c, n))
		},
	},
	{
		info: ProtocolInfo{
			Name:               "evperfect",
			Description:        "FloodSet guided by a wait-free eventually perfect failure detector: pre-stabilization suspicions break the round simulation (rounds default n)",
			SkipsGraphAnalysis: true,
		},
		build: func(n, _ int, c *config) (*system.System, error) {
			return protocols.BuildFloodSetWithEvP(n, roundsOr(c, n))
		},
	},
	{
		info: ProtocolInfo{
			Name:               "suspectcollector",
			Description:        "Section 6.3 union construction: n collectors accumulating pairwise perfect-detector reports",
			SkipsGraphAnalysis: true,
		},
		build: func(n, _ int, _ *config) (*system.System, error) {
			return protocols.BuildSuspectCollector(n)
		},
	},
}

// Protocols returns the registry of candidate families New accepts, in
// presentation order.
func Protocols() []ProtocolInfo {
	out := make([]ProtocolInfo, len(registry))
	for i, spec := range registry {
		out[i] = spec.info
	}
	return out
}

// lookupProtocol resolves a registry name.
func lookupProtocol(name string) (protocolSpec, bool) {
	for _, spec := range registry {
		if spec.info.Name == name {
			return spec, true
		}
	}
	return protocolSpec{}, false
}

// New builds a Checker for a registered candidate family: name is a
// registry key (see Protocols), n the number of processes (for "setboost",
// the group size), f the service resilience (ignored by families without a
// resilience knob). Options configure both system construction (silence
// policy, rounds) and analysis (workers, state budget, store backend,
// progress, context).
func New(name string, n, f int, opts ...Option) (*Checker, error) {
	spec, ok := lookupProtocol(name)
	if !ok {
		names := make([]string, len(registry))
		for i, s := range registry {
			names[i] = s.info.Name
		}
		return nil, fmt.Errorf("boosting: unknown protocol %q (have: %s)", name, strings.Join(names, ", "))
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.validateDurable(); err != nil {
		return nil, err
	}
	sys, err := spec.build(n, f, &cfg)
	if err != nil {
		return nil, err
	}
	// Resolve the family's canonicalizer eagerly whenever a symmetry spec is
	// declared: WithSymmetry routes it into the exploration engines, and
	// CanonicalFingerprint uses it either way, so renamed-isomorphic
	// identities collide regardless of whether the quotient graph is
	// requested. Resolution failures (an enumerated group beyond the cap at
	// large n) only matter when the reduction was actually asked for.
	var canon *symmetry.Canonicalizer
	if spec.sym != nil {
		canon, err = symmetry.New(sys, spec.sym(n, f))
		if err != nil {
			if cfg.symmetry {
				return nil, fmt.Errorf("boosting: %s symmetry: %w", name, err)
			}
			canon = nil
		}
	}
	chk := &Checker{sys: sys, cfg: cfg, skipGraph: spec.info.SkipsGraphAnalysis || cfg.skipGraph}
	if canon != nil {
		chk.canon = canon
		if cfg.symmetry {
			chk.cfg.canon = canon
		}
	}
	return chk, nil
}

// NewFromSystem wraps an already-composed system in a Checker, for systems
// assembled outside the registry (custom programs and service wirings).
// Pass WithoutGraphAnalysis for detector-bearing systems whose
// failure-free graph is infinite.
func NewFromSystem(sys *System, opts ...Option) *Checker {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return &Checker{sys: sys, cfg: cfg, skipGraph: cfg.skipGraph}
}
