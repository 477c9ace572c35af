// Package cliflags is the shared flag block of the cmd/* binaries: every
// tool that builds graphs takes the same exploration knobs (-workers,
// -maxstates, -store, -spilldir, -graphdir, -symmetry; boostd all but
// -graphdir), the tools that only run batches take -workers alone, and
// every tool surfaces partial exploration counts when a state budget
// overflows. Before the boosting façade each binary carried its own copy of
// this block; now there is one.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"github.com/ioa-lab/boosting"
)

// Common holds the flag values shared by all binaries.
type Common struct {
	Workers   int
	MaxStates int
	Store     string
	SpillDir  string
	GraphDir  string
	Symmetry  bool
}

const workersUsage = "upper bound on the goroutines refute scenarios, k-set assignments and batched runs fan out to; graphs are built on one (0 = one per CPU, 1 = no fan-out)"

// RegisterWorkers installs -workers alone, for the tools whose one engine
// call is RunBatch: no other exploration flag changes what they do.
func RegisterWorkers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, workersUsage)
}

// Register installs the shared flags on a flag set and returns the value
// holder to read after parsing.
func Register(fs *flag.FlagSet) *Common {
	c := registerEngine(fs)
	// Same empty-sentinel discipline as -store/-spilldir: "" means "not
	// requested", so the conflict matrix in Options can name exactly the
	// flags the user actually set.
	fs.StringVar(&c.GraphDir, "graphdir", "", "durable graph directory: commit the built graph for later reopening (implies -store spill; conflicts with -spilldir)")
	return c
}

// registerEngine installs every shared flag but -graphdir, which names one
// graph and so belongs to the one-build tools, not to a server's defaults.
func registerEngine(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.IntVar(&c.Workers, "workers", 0, workersUsage)
	fs.IntVar(&c.MaxStates, "maxstates", 0, "explored-state budget per graph build (0 = engine default)")
	// The empty sentinel default (rendered as dense by ParseStore) lets
	// Options distinguish an explicit -store dense from the default, so
	// -spilldir can reject every explicit conflicting backend.
	fs.StringVar(&c.Store, "store", "", "state store backend: dense | spill (edges in an on-disk file; default dense)")
	fs.StringVar(&c.SpillDir, "spilldir", "", "directory for the spill edge file (implies -store spill; default: OS temp dir)")
	fs.BoolVar(&c.Symmetry, "symmetry", false, "canonicalize states modulo process renaming (quotient graph; symmetric families only)")
	return c
}

// Server holds the boostd-specific flag values next to the shared engine
// block: the engine flags become the server's *default* job options, so a
// boostd started with -store spill -symmetry applies them to every job
// whose JSON option block leaves those fields unset.
type Server struct {
	Addr  string
	Pool  int
	Cache int
	Drain time.Duration
	// Common is the shared engine block, registered alongside.
	Common *Common
}

// RegisterServer installs the boostd flags (-addr, -pool, -cache, -drain)
// plus the shared engine block without -graphdir: boostd writes no graph to
// disk, so the flag is refused as unknown rather than ignored.
func RegisterServer(fs *flag.FlagSet) *Server {
	s := &Server{Common: registerEngine(fs)}
	fs.StringVar(&s.Addr, "addr", ":8080", "HTTP listen address")
	fs.IntVar(&s.Pool, "pool", 0, "concurrently running checking jobs (0 = one per CPU; jobs default to the serial engine, so the pool is the parallelism)")
	fs.IntVar(&s.Cache, "cache", 0, "result-cache capacity in entries (0 = default 1024)")
	fs.DurationVar(&s.Drain, "drain", 10*time.Second, "graceful-shutdown deadline: in-flight jobs drain this long before their contexts are cancelled")
	return s
}

// ParseStore resolves a -store flag value.
func ParseStore(name string) (boosting.Store, error) {
	switch name {
	case "", "dense":
		return boosting.DenseStore, nil
	case "spill":
		return boosting.SpillStore, nil
	case "hash64", "hash128":
		return boosting.DenseStore, fmt.Errorf("store backend %q was removed (the dense store now keeps less per state); use dense or spill", name)
	default:
		return boosting.DenseStore, fmt.Errorf("unknown store backend %q (have: dense, spill)", name)
	}
}

// Options lowers the parsed flags to façade options. -spilldir implies
// -store spill when the store is left at its default; combining it with an
// explicitly different backend is a contradiction and errors rather than
// silently overriding the request.
func (c *Common) Options() ([]boosting.Option, error) {
	store, err := ParseStore(c.Store)
	if err != nil {
		return nil, err
	}
	if c.SpillDir != "" && store != boosting.SpillStore {
		if c.Store != "" {
			return nil, fmt.Errorf("-spilldir requires -store spill (got -store %s)", c.Store)
		}
		store = boosting.SpillStore
	}
	if c.GraphDir != "" {
		// Mirror the façade's WithGraphDir conflict matrix at the flag
		// layer, so errors name the flags the user typed rather than the
		// options they lower to.
		if c.SpillDir != "" {
			return nil, fmt.Errorf("-graphdir conflicts with -spilldir (the durable graph owns its directory; ephemeral spill files go elsewhere automatically)")
		}
		if c.Store != "" && store != boosting.SpillStore {
			return nil, fmt.Errorf("-graphdir requires -store spill (got -store %s)", c.Store)
		}
		store = boosting.SpillStore
	}
	opts := []boosting.Option{
		boosting.WithWorkers(c.Workers),
		boosting.WithMaxStates(c.MaxStates),
		boosting.WithStore(store),
	}
	if c.GraphDir != "" {
		opts = append(opts, boosting.WithGraphDir(c.GraphDir))
	} else if store == boosting.SpillStore {
		opts = append(opts, boosting.WithSpillDir(c.SpillDir))
	}
	if c.Symmetry {
		opts = append(opts, boosting.WithSymmetry())
	}
	return opts, nil
}

// Describe renders an error for CLI display, surfacing the partial
// exploration count when a graph build overflowed its state budget. The
// WithGraphDir conflicts print as they are: their Reason already names the
// fix.
func Describe(err error) string {
	var le *boosting.LimitError
	if errors.As(err, &le) {
		return fmt.Sprintf("%v (explored %d states before the limit; raise -maxstates)", err, le.Explored)
	}
	return err.Error()
}
