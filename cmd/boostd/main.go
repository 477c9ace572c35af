// Command boostd serves the boosting checker as a persistent HTTP/JSON
// service: POST a protocol instance to /v1/jobs, tail its per-level
// progress as Server-Sent Events at /v1/jobs/{id}/events, and fetch the
// typed verdict at /v1/jobs/{id}. Results are cached under the canonical
// system fingerprint, so renamed-but-isomorphic resubmissions are answered
// without exploring a single state.
//
// The shared engine flag block (-workers, -store, -symmetry, …) sets the
// *default* job options; each submission may override them in its JSON
// option block. Server flags:
//
//	-addr  :8080   HTTP listen address
//	-pool  NumCPU  concurrently running jobs (jobs default to serial builds)
//	-cache 1024    result-cache capacity in entries
//	-drain 10s     graceful-shutdown deadline before job contexts cancel
//
// -graphdir names the durable graph root of the delta-match cache tier:
// classify jobs commit their graphs under it, and a submission differing
// from a committed graph only in silence policy reopens that graph and
// answers from it instead of rebuilding ("cached": "delta" in the
// acknowledgement, deltaHits on /v1/stats). Unset, boostd uses a
// temporary root removed at exit, so the tier is always on within one
// server lifetime.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"github.com/ioa-lab/boosting/internal/cliflags"
	"github.com/ioa-lab/boosting/internal/server"
)

func main() {
	fs := flag.NewFlagSet("boostd", flag.ExitOnError)
	sf := cliflags.RegisterServer(fs)
	_ = fs.Parse(os.Args[1:])

	// Lower the engine flag block once, up front, so a contradictory
	// combination (-spilldir with -store dense) fails at startup rather
	// than on the first job.
	if _, err := sf.Common.Options(); err != nil {
		fmt.Fprintln(os.Stderr, "boostd:", cliflags.Describe(err))
		os.Exit(2)
	}
	// -graphdir is the server's durable graph root, not a per-job default:
	// jobs must never inherit it (every classify would collide on one
	// directory), so it is peeled off before the flag block lowers into
	// Config.Defaults. Unset, the tier runs on a temporary root removed at
	// exit.
	graphRoot := sf.Common.GraphDir
	sf.Common.GraphDir = ""
	if graphRoot == "" {
		tmp, err := os.MkdirTemp("", "boostd-graphs-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "boostd:", err)
			os.Exit(2)
		}
		defer os.RemoveAll(tmp)
		graphRoot = tmp
	}
	srv := server.New(server.Config{
		Pool:      sf.Pool,
		CacheSize: sf.Cache,
		Defaults:  server.DefaultsFromFlags(sf.Common),
		GraphRoot: graphRoot,
	})
	httpSrv := &http.Server{Addr: sf.Addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("boostd listening on %s (pool=%d, cache=%d, drain=%s)", sf.Addr, sf.Pool, sf.Cache, sf.Drain)

	select {
	case err := <-errc:
		log.Fatalf("boostd: serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("boostd: draining (deadline %s)", sf.Drain)

	drainCtx, cancel := context.WithTimeout(context.Background(), sf.Drain)
	defer cancel()
	// Stop accepting connections first, then drain the job pool: queued and
	// running jobs finish until the deadline, after which their contexts are
	// cancelled and the engines unwind at the next level boundary.
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("boostd: http shutdown: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("boostd: drain: %v", err)
	}
	log.Printf("boostd: stopped")
}
