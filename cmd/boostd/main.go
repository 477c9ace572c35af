// Command boostd serves the boosting checker as a persistent HTTP/JSON
// service: POST a protocol instance to /v1/jobs, tail its per-level
// progress as Server-Sent Events at /v1/jobs/{id}/events, and fetch the
// typed verdict at /v1/jobs/{id}. Results are cached under the canonical
// system fingerprint, so renamed-but-isomorphic resubmissions are answered
// without exploring a single state.
//
// A job's options (workers, store, symmetry, state budget, …) are exactly
// its JSON option block. The flags configure the service:
//
//	-addr     :8080   HTTP listen address
//	-pool     NumCPU  concurrently running jobs (jobs default to serial builds)
//	-cache    1024    result-cache capacity in entries
//	-drain    10s     graceful-shutdown deadline before job contexts cancel
//	-spilldir tmp     directory for the edge files of spill-store jobs
//
// A classify submission differing from a finished one only in silence policy
// is answered with that build's recorded verdict instead of a rebuild
// ("cached": "delta" in the acknowledgement, deltaHits on /v1/stats).
package main

import (
	"context"
	"errors"
	"flag"
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

	srv := server.New(server.Config{
		Pool:      sf.Pool,
		CacheSize: sf.Cache,
		SpillDir:  sf.SpillDir,
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
