package boosting

import (
	"testing"

	"github.com/ioa-lab/boosting/internal/system"
)

// RegisterProtocolForTest adds a candidate family to the registry until the
// test ends, so a test can drive a candidate of its own through everything
// that resolves protocols by name — boostd's job submission in particular.
func RegisterProtocolForTest(t testing.TB, name string, build func(n, f int) (*system.System, error)) {
	registry = append(registry, protocolSpec{
		info:  ProtocolInfo{Name: name, Description: "registered by " + t.Name()},
		build: func(n, f int, _ *config) (*system.System, error) { return build(n, f) },
	})
	t.Cleanup(func() { registry = registry[:len(registry)-1] })
}
