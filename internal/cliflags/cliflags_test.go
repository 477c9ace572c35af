package cliflags

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/ioa-lab/boosting"
)

func TestParseStore(t *testing.T) {
	cases := []struct {
		name string
		want boosting.Store
	}{
		{"", boosting.DenseStore},
		{"dense", boosting.DenseStore},
		{"spill", boosting.SpillStore},
	}
	for _, c := range cases {
		got, err := ParseStore(c.name)
		if err != nil || got != c.want {
			t.Errorf("ParseStore(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	if _, err := ParseStore("mmap"); err == nil {
		t.Error("ParseStore accepted an unknown backend")
	}
	// The hash-compaction values are gone; the error says so and what to
	// use, here and through every binary's -store flag.
	for _, name := range []string{"hash64", "hash128"} {
		_, err := ParseStore(name)
		if err == nil || !strings.Contains(err.Error(), "removed") || !strings.Contains(err.Error(), "use dense or spill") {
			t.Errorf("ParseStore(%q): %v, want an error naming the removal", name, err)
		}
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		c := Register(fs)
		if err := fs.Parse([]string{"-store", name}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Options(); err == nil || !strings.Contains(err.Error(), "removed") {
			t.Errorf("Options with -store %s: %v, want the removal error", name, err)
		}
	}
}

// TestOptionsSpill: the parsed -store spill / -spilldir flags lower to
// façade options that actually route a build through the spill backend.
func TestOptionsSpill(t *testing.T) {
	for _, args := range [][]string{
		{"-store", "spill"},
		{"-spilldir", t.TempDir()}, // implies -store spill
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		c := Register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		opts, err := c.Options()
		if err != nil {
			t.Fatal(err)
		}
		chk, err := boosting.New("forward", 2, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := chk.ClassifyInits()
		if err != nil {
			t.Fatalf("args %v: %v", args, err)
		}
		if _, ok := boosting.GraphSpillStats(res.Graph); !ok {
			t.Errorf("args %v: build did not use the spill backend", args)
		}
	}
}

// TestRemovedFlags: flags that left with what they configured. -shards went
// with the sharded engine; -nowitness with the predecessor links, which
// graphs no longer store; -graphdir with the reopen of a committed graph,
// which nothing used. Every binary registers one of these blocks, so the flag
// package's own unknown-flag error is what each of them now prints, and
// ExitCode makes it exit 2 — as boostd's flag.ExitOnError set does — where
// a failed run exits 1.
func TestRemovedFlags(t *testing.T) {
	blocks := map[string]func(*flag.FlagSet){
		"Register":        func(fs *flag.FlagSet) { Register(fs) },
		"RegisterServer":  func(fs *flag.FlagSet) { RegisterServer(fs) },
		"RegisterWorkers": func(fs *flag.FlagSet) { RegisterWorkers(fs) },
	}
	for _, tc := range []struct {
		block string
		args  []string
	}{
		{"Register", []string{"-shards", "2"}},
		{"Register", []string{"-nowitness"}},
		{"RegisterWorkers", []string{"-nowitness"}},
		{"Register", []string{"-graphdir", "x"}},
		{"RegisterServer", []string{"-graphdir", "x"}},
	} {
		t.Run(tc.block+" "+tc.args[0], func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			blocks[tc.block](fs)
			err := Parse(fs, tc.args)
			if want := "flag provided but not defined: " + tc.args[0]; err == nil || err.Error() != want {
				t.Errorf("Parse(%v) = %v, want %q", tc.args, err, want)
			}
			if code := ExitCode(err); code != 2 {
				t.Errorf("Parse(%v) exits %d, want 2", tc.args, code)
			}
		})
	}
	if code := ExitCode(errors.New("unknown store backend")); code != 1 {
		t.Errorf("a failed run exits %d, want 1", code)
	}
}

// TestRegisterWorkers: the batch-only block is -workers and nothing else.
func TestRegisterWorkers(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	workers := RegisterWorkers(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if len(names) != 1 || names[0] != "workers" {
		t.Errorf("RegisterWorkers registered %v, want [workers]", names)
	}
	if err := fs.Parse([]string{"-workers", "3"}); err != nil || *workers != 3 {
		t.Errorf("Parse(-workers 3) = %v, workers %d", err, *workers)
	}
}

// TestDescribe: the budget hint rides on *LimitError; the WithGraphDir
// conflicts — whose Reason already names the fix — and plain errors print as
// they are.
func TestDescribe(t *testing.T) {
	mustNew := func(opts ...boosting.Option) *boosting.Checker {
		t.Helper()
		chk, err := boosting.New("forward", 2, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return chk
	}
	_, limitErr := mustNew(boosting.WithMaxStates(10)).ClassifyInits()
	_, graphDirRefuteErr := mustNew(boosting.WithGraphDir(t.TempDir())).Refute(1)
	_, graphDirSpillErr := boosting.New("forward", 2, 0, boosting.WithGraphDir(t.TempDir()), boosting.WithSpillDir(t.TempDir()))
	plainErr := errors.New("unknown store backend")
	for _, tc := range []struct {
		name   string
		err    error
		suffix string // appended to err.Error(); "" = printed as is
	}{
		{"limit", limitErr, " (explored 10 states before the limit; raise -maxstates)"},
		{"graphdir vs Refute", graphDirRefuteErr, ""},
		{"graphdir vs spilldir", graphDirSpillErr, ""},
		{"plain", plainErr, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err == nil {
				t.Fatal("the set-up produced no error to describe")
			}
			if got, want := Describe(tc.err), tc.err.Error()+tc.suffix; got != want {
				t.Errorf("Describe = %q\nwant       %q", got, want)
			}
		})
	}
}

// TestRegisterServer: the boostd flag block parses next to the shared
// engine block, and the engine flags it carries still lower to façade
// options (they become the server's default job options).
func TestRegisterServer(t *testing.T) {
	fs := flag.NewFlagSet("boostd", flag.ContinueOnError)
	s := RegisterServer(fs)
	args := []string{"-addr", ":9999", "-pool", "2", "-cache", "16", "-drain", "3s", "-store", "spill", "-symmetry"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if s.Addr != ":9999" || s.Pool != 2 || s.Cache != 16 || s.Drain != 3*time.Second {
		t.Errorf("server flags = %+v, want addr=:9999 pool=2 cache=16 drain=3s", s)
	}
	if s.Common == nil || s.Common.Store != "spill" || !s.Common.Symmetry {
		t.Errorf("engine block not registered alongside: %+v", s.Common)
	}
	if _, err := s.Common.Options(); err != nil {
		t.Errorf("engine block failed to lower: %v", err)
	}

	// Defaults without arguments.
	fs = flag.NewFlagSet("boostd", flag.ContinueOnError)
	s = RegisterServer(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if s.Addr != ":8080" || s.Pool != 0 || s.Cache != 0 || s.Drain != 10*time.Second {
		t.Errorf("server flag defaults = %+v, want addr=:8080 pool=0 cache=0 drain=10s", s)
	}
}

// TestOptionsSpillDirConflict: -spilldir with an explicit -store dense is a
// contradiction and must error, not silently override.
func TestOptionsSpillDirConflict(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs)
	if err := fs.Parse([]string{"-store", "dense", "-spilldir", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Options(); err == nil {
		t.Error("Options accepted -store dense with -spilldir")
	}
	// -store spill -spilldir together remain valid.
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	c = Register(fs)
	if err := fs.Parse([]string{"-store", "spill", "-spilldir", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Options(); err != nil {
		t.Errorf("Options rejected -store spill with -spilldir: %v", err)
	}
}
