GO ?= go

.PHONY: all build loc test race fuzz bench bench-quick bench-allocs bench-symmetry bench-adjacency test-spill test-server run-boostd lint vet analyze fmt-check vendor-check fmt vuln apidiff-baseline apidiff

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Non-test Go lines outside third_party/ and bench/ — the size figure
# CHANGES.md and ROADMAP.md quote — as a total; on the second line the
# vendored Go lines under third_party/ (not in the total); then one line per
# top-level directory ("." is the root package's own files).
loc:
	@vendored=$$(find third_party -name '*.go' -exec cat {} + | wc -l); \
	find . -name '*.go' ! -name '*_test.go' ! -path './third_party/*' ! -path './bench/*' -print0 \
		| xargs -0 wc -l | awk -v vendored="$$vendored" '$$2 != "total" { split($$2, p, "/"); d = (p[3] == "" ? "." : p[2]); n[d] += $$1; t += $$1 } \
		END { printf "%6d total\n%6d vendored third_party (not in the total)\n", t, vendored; for (d in n) printf "%6d %s\n", n[d], d | "sort -k2" }'

# The race job proves the concurrency that is left data-race free. A graph
# is built on one goroutine; what fans out is the analyses' independent units
# — Refute's failure scenarios, RefuteKSet's assignments, RunBatch's runs —
# and those share one System, whose cell tables and transition memo fill
# lazily. The second line fills one System's cell tables and transition memo
# from four goroutines at once, and has four goroutines intern the same
# component states into one fresh System's slots — the dense vertex store
# keys on the indices those slots hand out, which must come out dense and one
# per encoding whoever wins — and step one cold System from four goroutines,
# racing to publish the same memo edges and to number the same actions
# (every stored edge carries such a number), and list the candidate tasks of
# the same cells while others publish their not-enabled bits, which must never
# leave out an applicable task; interleavings differ per run, so it is
# repeated. The third line repeats the fan-outs themselves: both refuters'
# shared failure-set sweep (Refute's scenarios and RefuteKSet's assignments,
# set-boost on both sides of the k-set boundary) and RunBatch on eight
# workers against their one-worker results, RunBatch's pinned runs at four
# workers against one, the Refute
# sweep's progress contract (an unsynchronised recorder on four workers: any
# concurrent report is a detected race) and the small rows of its two
# differential suites (against the per-assignment sweep, and α_0 … α_n
# against all 2^n roots), the orbit counts, the façade's one-build
# sweep, the release of the classification graph at every cancellation
# point of a refutation, and the symmetry layer's four goroutines
# canonicalizing one frontier on a fresh System (racing to index the same
# service cells and intern the same renamed ones). The per-ID determinism
# matrix at 2, 3 and 8 workers and the handler panic recovered in a build
# repeat beside them: a build that started goroutines again would race there
# first.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestConcurrentApply|TestConcurrentCellIndices|TestConcurrentActionNumbers|TestConcurrentCandidates' ./internal/system
	$(GO) test -race -count=5 -run 'TestBuildGraphDeterministicAcrossWorkers|TestHandlerPanicFailsTheBuild|TestRefuteParallelMatchesSerial|TestRunBatchMatchesSerial|TestRunPins|TestRefuteProgressSerialized|TestRefuteSweepBudget|TestRefuteSweepMatchesOracle/(forward-n[23]|contrarian|lopsided|tob|registervote-n2)|TestRefuteOrbitSweepMatchesUnion/(forward-n[23]|contrarian|lopsided|tob-n2|registervote-n2|setboost)|TestOrbitClassCounts|TestRefuteReleasesGraphOnCancel|TestRefuteSweepsOneRootPerOrbit|TestConcurrentCanonical|TestWitnessPathConcurrent' . ./internal/explore ./internal/symmetry

# Native fuzzing: every Fuzz target in the module (outside third_party/)
# for 20 s each — `go test -fuzz` takes one target of one package per
# run. Inputs that widen coverage stay in the Go build cache; a failing
# input is written to the package's testdata/fuzz/<Target>/, where
# `make test` replays it beside the committed corpus.
fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' --exclude-dir=third_party '^func Fuzz' . | sort); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "== $$t ($$(dirname $$f))"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 20s $$(dirname $$f); \
		done; \
	done

# Benchmark smoke run: every benchmark once, no timing rigour. Use
# `$(GO) test -bench=. -benchmem ./...` for real measurements.
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# The time-to-verdict harness (bench/README.md) in smoke mode: 1 s per
# workload, numbers not comparable — but every op of all four workloads is
# checked against bench/expected.json, so a wrong verdict, count or cache
# state fails here. `$(GO) run ./bench` is the full run.
bench-quick:
	$(GO) run ./bench -quick

# Allocation accounting for the exploration stack: the E22–E24 engine
# comparisons, the E25 fingerprint-encoder comparison, the E26/E38 dense
# store rows (forward n=4/5/6, retained bytes per state), the E27 symmetry
# reduction (quotient vs full graph) and the E29 spilled adjacency (the
# edge file against dense, on the exhaustive forward n=5 build), with
# -benchmem.
# E22 carries one row per system — tob n=2, forward n=4 and n=5,
# registervote n=2 and the forward n=6 quotient — plus forward-n5-cold (a
# fresh System per build: what one op of the time-to-verdict harness
# allocates, E39; ≤ 65 k allocs and ≤ 7 MB an op, E44).
# BenchmarkStoreBackends/forward-n6/dense is the B/op sentinel of the dense
# store's segments: 26.6 MB an op for a graph that retains 24.9 (E40; 82.4 MB
# while keys, states and edges grew by append-doubling) — a store change that
# reallocates what it holds shows there first. BenchmarkStep is the
# stepping primitive's hit path in internal/system: ns per step, 0 allocs/op.
# B/op and allocs/op are stable at low iteration counts, so a short
# fixed benchtime keeps this cheap enough to run per-PR; CI uploads the
# output as an artifact (bench-allocs.txt) to make allocation
# regressions visible.
bench-allocs:
	@$(GO) test -bench 'BenchmarkBuildGraph$$|BenchmarkRefuteWorkers|BenchmarkRunBatchWorkers|BenchmarkFingerprint|BenchmarkStoreBackends|BenchmarkSymmetry$$|BenchmarkSpillAdjacency' \
		-benchmem -benchtime=2x -run '^$$' . > bench-allocs.txt; \
		status=$$?; \
		$(GO) test -bench 'BenchmarkStep$$' -benchmem -benchtime=1000000x -run '^$$' ./internal/system >> bench-allocs.txt || status=$$?; \
		cat bench-allocs.txt; exit $$status

# The E27 row on its own: reduced vs unreduced build time, state count and
# retained bytes for the forward n=4 exhaustive analysis. Next to it, what
# canonicalizing one successor costs (ns/op and allocs/op over the forward
# n=6 quotient's successors, split identity / renamed-hit / renamed-miss —
# E34), so a regression of the symmetry layer shows without the full
# harness, and the enumerated path's quotient builds (tob, registervote).
bench-symmetry:
	$(GO) test -bench 'BenchmarkSymmetry$$' -benchmem -benchtime=2x -run '^$$' .
	$(GO) test -bench 'BenchmarkCanonical' -benchmem -benchtime=200000x -run '^$$' ./internal/symmetry
	$(GO) test -bench 'BenchmarkEnumerated' -benchmem -benchtime=5x -run '^$$' ./internal/symmetry

# The E29 rows on their own: the spilled adjacency (delta-varint edge
# blocks on disk) against dense — retained bytes/state, edge-file
# bytes/edge, edge-block reads.
bench-adjacency:
	$(GO) test -bench 'BenchmarkSpillAdjacency' -benchmem -benchtime=2x -run '^$$' .

# The spill-store slice of the parity suites under a low memory ceiling:
# graph identity (IDs, edges, valences, reports) of the spill backend
# against dense, serial and parallel, reduced and unreduced, with the Go
# heap softly capped to prove exploration no longer needs edge-sized
# RAM. TestSpill also matches the exhaustive forward n=5 and n=6 frontier
# builds, so both run under the ceiling with the edges on disk; in-package,
# it covers the edge file's sealed/pending round trip and its write-failure
# path, and TestTargetsMatchesEdgesFrom the label-free reads of both
# adjacencies and of a reopened graph.
# -count=1 matters: GOMEMLIMIT is read by the runtime, not the test
# binary, so it is not part of the test-cache key — without it a warm
# cache would replay passes that never ran under the ceiling.
# TestDurable adds what is left of the durable graph store, the write-once
# commit (WithGraphDir) and the reattach (OpenGraph, every fingerprint
# decoded back into the vertex store): both run under the same ceiling, with
# the reattached edges still on disk. It is kept for the benchmark's
# quotient-durable-n6 workload; no CLI and not boostd keeps a graph on disk.
test-spill:
	GOMEMLIMIT=64MiB $(GO) test -count=1 -run 'TestStoreParity|TestGoldenExploration|TestGoldenInfiniteFamilies|TestRefutationReportParity|TestQuotient|TestSpill|TestDurable|TestWithGraphDir' .
	GOMEMLIMIT=64MiB $(GO) test -count=1 -run 'TestSpill|TestStoreBounds|TestTargetsMatchesEdgesFrom|TestDurable' ./internal/explore/

# The checking-service suite: the boostd HTTP/SSE/cache end-to-end tests
# (golden counts, single-flight dedup, isomorphic cache hits, the cache-key
# soundness sweep, the spill directory only spill-store jobs read, the
# in-memory delta tier's per-family parity and root-mismatch fallback,
# cancel, drain and SSE-disconnect semantics, and a goroutine count back at
# its baseline after the suite) plus the flag blocks' tests. boostd no
# longer reaches the durable graph store. -count=1 because the suite asserts
# cross-request counters, not pure functions.
test-server:
	$(GO) test -count=1 ./internal/server/ ./internal/cliflags/

# Run the checking service locally (see README for the curl quickstart).
run-boostd:
	$(GO) run ./cmd/boostd

lint: vet analyze fmt-check vendor-check

vet:
	$(GO) vet ./...

# The repo's own invariant suite (see DESIGN.md "Enforced invariants"):
# five go/analysis analyzers — determinism, graphclose, storebounds,
# typederr, ctxflow — built into a unitchecker binary and run through the
# standard `go vet -vettool` driver, so findings carry file:line positions
# and //lint:boostvet-ignore waivers are honoured.
BOOSTVET = bin/boostvet

analyze:
	@mkdir -p bin
	$(GO) build -o $(BOOSTVET) ./cmd/boostvet
	$(GO) vet -vettool=$(BOOSTVET) ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .

# The vendored x/tools subset (go.mod's replace) holds only what the module
# compiles: every Go package directory under third_party/ must be in
# `go list -deps ./...`, and every vendored .go file must be in one of those
# packages' compiled GoFiles — so no test file and nothing a build
# constraint leaves out. A re-vendor copies whole files, byte-identical,
# from the Go toolchain's src/cmd/vendor; this fails when it copies more
# than the build reaches.
vendor-check:
	@root="$$($(GO) list -m -f '{{.Dir}}')/"; \
	deps="$$($(GO) list -deps -f '{{.Dir}}' ./... | sed -n "s|^$$root||p")"; \
	compiled="$$($(GO) list -deps -f '{{range .GoFiles}}{{$$.Dir}}/{{.}}{{"\n"}}{{end}}' ./... | sed -n "s|^$$root||p")"; \
	status=0; \
	for d in $$(find third_party -name '*.go' | sed 's|/[^/]*$$||' | sort -u); do \
		printf '%s\n' "$$deps" | grep -qxF "$$d" || { echo "vendor-check: $$d is not in go list -deps ./..."; status=1; }; \
	done; \
	for f in $$(find third_party -name '*.go' | sort); do \
		printf '%s\n' "$$compiled" | grep -qxF "$$f" || { echo "vendor-check: $$f is in no package's compiled GoFiles"; status=1; }; \
	done; \
	exit $$status

# Known-vulnerability scan over the module and its (std-only) dependency
# graph. Requires network to fetch the tool + vuln DB, so it runs in CI;
# locally it degrades to a skip message ONLY when the tool itself cannot be
# fetched — a scan that runs and finds vulnerabilities fails the target.
vuln:
	@if $(GO) run golang.org/x/vuln/cmd/govulncheck@latest -version >/dev/null 2>&1; then \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...; \
	else \
		echo "govulncheck unavailable (offline?) — skipped"; \
	fi

# API-compatibility gate for the public boosting package: snapshot the
# baseline export data (apidiff-baseline, run on the base revision), then
# diff the working tree against it. Any incompatible change fails; a
# baseline taken before a declared break (API_BREAKS.md: the latest is the
# removal of VertexStore, AdjacencyStore, StateStore, StoreCollisions and
# two SpillStats fields) reports it — retake it on that commit.
APIDIFF = $(GO) run golang.org/x/exp/cmd/apidiff@latest

apidiff-baseline:
	$(APIDIFF) -w boosting.baseline.export github.com/ioa-lab/boosting

apidiff:
	@out="$$($(APIDIFF) -incompatible boosting.baseline.export github.com/ioa-lab/boosting)"; \
	if [ -n "$$out" ]; then \
		echo "incompatible API changes in package boosting:"; echo "$$out"; exit 1; \
	else echo "boosting API compatible with baseline"; fi
