package server_test

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// TestMain runs the suite, then requires the goroutine count back at its
// pre-suite baseline: every test shuts its servers down, so a pool worker,
// an SSE handler or a connection goroutine still alive after the last test
// is a leak. Connection goroutines unwind asynchronously after Close, so
// the count is polled against a deadline. Fuzzing runs skip the check: the
// fuzzing engine keeps goroutines of its own.
func TestMain(m *testing.M) {
	flag.Parse()
	baseline := runtime.NumGoroutine()
	code := m.Run()
	fuzzing := flag.Lookup("test.fuzz").Value.String() != "" || flag.Lookup("test.fuzzworker").Value.String() == "true"
	if code == 0 && !fuzzing {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after the suite, %d before it\n", n, baseline)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
		}
	}
	os.Exit(code)
}
