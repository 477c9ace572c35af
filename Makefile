GO ?= go

.PHONY: all build test race bench bench-quick bench-allocs bench-symmetry bench-adjacency test-spill test-server run-boostd lint vet analyze fmt-check fmt vuln apidiff-baseline apidiff

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race job is what proves the pooled level body correct: workers
# expanding a level against the frozen store and the coordinator's serial
# intern at the level barrier run under the race detector. The second line fills one System's cell tables
# and transition memo from four goroutines at once, and has four goroutines
# intern the same component states into one fresh System's slots — the dense
# vertex store keys on the indices those slots hand out, which must come out
# dense and one per encoding whoever wins — and step one cold System from four
# goroutines, racing to publish the same memo edges and to number the same
# actions (every stored edge carries such a number); interleavings differ per
# run, so it is repeated. The third line repeats the Refute sweep's progress
# contract (an unsynchronised recorder on four workers: any concurrent report
# is a detected race) and the small rows of its differential suite, and the
# symmetry layer's four goroutines canonicalizing one frontier on a fresh
# System (racing to index the same service cells and intern the same renamed
# ones). It also repeats the per-ID determinism matrix (2, 3 and 8 workers,
# dense, spill and quotient): each worker's level-local candidate table must
# be touched by that worker and, at the barrier, the coordinator only — which
# goroutine runs which chunk when differs per run, and -race is what would
# show a second goroutine in a table — and the handler panic recovered on an
# expansion worker, whose error the coordinator reads at the barrier — and the
# segment-boundary parity of the dense store at 2 and 3 workers: with one to
# seven vertices a segment the coordinator appends a segment to the keys,
# states and edges directories at nearly every intern, and the workers of the
# next level read through those directory slice headers, which is what a
# missing barrier would race on. Those suites pool every level; the
# inline/pooled parity rows at 2 and 3 workers are repeated beside them for
# the builds that alternate: the first worker's scratch also serves the
# inline body, so a level expanded inline between two pooled ones is where
# an arena not reset at the barrier, or still read by a worker, would show.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestConcurrentApply|TestConcurrentCellIndices|TestConcurrentActionNumbers' ./internal/system
	$(GO) test -race -count=5 -run 'TestBuildGraphDeterministicAcrossWorkers|TestSegmentBoundaryParity/workers=[23]|TestLevelStepInlinePooledParity/workers=[23]|TestHandlerPanicFailsTheBuild|TestRefuteProgressSerialized|TestRefuteSweepBudget|TestRefuteSweepMatchesOracle/(forward-n[23]|contrarian|tob|registervote-n2)|TestConcurrentCanonical' ./internal/explore ./internal/symmetry

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
# reduction (quotient vs full graph) and the E29 spilled adjacency (edge
# file + witness-free builds, on the exhaustive forward n=5 build), with
# -benchmem.
# E22 carries the one-worker vs worker-pool rows on forward n=5 and the
# forward n=6 quotient, the default-path (workers=0) rows on tob n=2 and
# forward n=4 (E41), plus forward-n5-cold (a fresh System per build: what
# one op of the time-to-verdict harness allocates, E39).
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
	@$(GO) test -bench 'BenchmarkBuildGraphWorkers|BenchmarkRefuteWorkers|BenchmarkRunBatchWorkers|BenchmarkFingerprint|BenchmarkStoreBackends|BenchmarkSymmetry$$|BenchmarkSpillAdjacency' \
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
# blocks on disk) against dense, with and without witness predecessor
# links — retained bytes/state, edge-file bytes/edge, edge-block reads.
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
# TestDurable and TestClassifyReopened add the durable graph store:
# commit, reopen-parity (every fingerprint decoded back into the vertex
# store) and a policy variant answered from the reopened graph all run under
# the same ceiling, with the reattached edges still on disk.
test-spill:
	GOMEMLIMIT=64MiB $(GO) test -count=1 -run 'TestStoreParity|TestGoldenExploration|TestGoldenInfiniteFamilies|TestRefutationReportParity|TestQuotient|TestSpill|TestDurable|TestWithGraphDir' .
	GOMEMLIMIT=64MiB $(GO) test -count=1 -run 'TestSpill|TestStoreBounds|TestTargetsMatchesEdgesFrom|TestDurable|TestClassifyReopened' ./internal/explore/

# The checking-service suite: the boostd HTTP/SSE/cache end-to-end tests
# (golden counts, single-flight dedup, isomorphic cache hits, cancel and
# drain semantics) plus the shared flag block's lowering tests. -count=1
# because the suite asserts cross-request counters, not pure functions.
test-server:
	$(GO) test -count=1 ./internal/server/ ./internal/cliflags/

# Run the checking service locally (see README for the curl quickstart).
run-boostd:
	$(GO) run ./cmd/boostd

lint: vet analyze fmt-check

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
