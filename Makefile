# Mirrors .github/workflows/ci.yml: a green `make ci` locally means a
# green pipeline.

GO ?= go

.PHONY: all build test cover race bench bench-smoke bench-alloc chaos crash fuzz fmt vet ci server server-smoke loc

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Coverage profile over every package; CI uploads coverage.out as an
# artifact.
cover:
	$(GO) test -coverprofile=coverage.out ./...

# Race-detector pass over the packages with concurrent execution paths
# (the morsel worker pool, the bounded executor built on it, the
# pooled hash infrastructure shared across scan workers, the impression
# views read by queries while loads mutate the samplers, the loader
# whose backfill registers a sink while batches land, the shared
# recycler + the expr scratch-pool kernels it drives, the HTTP server
# whose admission queue and tenant counters every request pounds, and the durable segment store whose granule cache is touched
# by scans while loads fold batches).
race:
	$(GO) test -race ./internal/engine/... ./internal/bounded/... ./internal/hashtab/... ./internal/impression/... ./internal/loader/... ./internal/recycler/... ./internal/expr/... ./internal/server/... ./internal/wire/... ./internal/segment/... .

# Crash-recovery suite under the race detector: the segment store's
# WAL/torn-tail/fault-injection property tests, the DB-level restart
# and crash-without-Close recovery tests, and the daemon's -data-dir
# restart acceptance.
crash:
	$(GO) test -race -v ./internal/segment/...
	$(GO) test -race -run='^TestDurable' -v .
	$(GO) test -race -run='^TestRestartRecoversDataDir$$' -v ./cmd/sciborqd

# Short fuzz smoke over the SQL front-end (Parse never panics, accepted
# statements round-trip through Statement.String, and their literal
# slots are the lexer's and rebind through ParseBound), the wire
# protocol (frame/page decoders never panic on arbitrary bytes, and
# decoded frames re-encode losslessly), the cone kernel (it selects
# exactly the rows the AngularSeparation reference selects, a dec off
# the sphere never), the
# predicate kernels (FilterRange and FilterSel of an arbitrary predicate
# tree select exactly the rows the row-at-a-time reference selects) and
# WAL replay (arbitrary log bytes either decode or are refused, never
# panic or over-allocate, and replay keeps a prefix of the log).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/sqlparse
	$(GO) test -run='^$$' -fuzz='^FuzzFrame$$' -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzFrameStream$$' -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzConeKernel$$' -fuzztime=10s ./internal/expr
	$(GO) test -run='^$$' -fuzz='^FuzzPredicateKernels$$' -fuzztime=10s ./internal/expr
	$(GO) test -run='^$$' -fuzz='^FuzzWALReplay$$' -fuzztime=10s ./internal/segment

# One-iteration benchmark smoke: fails loudly if the hot scan path
# regresses to an error, without paying full benchmark time.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# The client-observed benchmark (bench/, its own module, what
# BENCHMARK.json runs) compiles against the product's API and boots the
# real stack: vet it, run its tests, and run one short pass of every
# workload, so the instrument cannot rot behind an API change.
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	bash bench/run.sh -smoke

# Allocation regression gate, asserted via testing.AllocsPerRun: the
# steady-state cone kernel, a two-conjunct FilterRange, one part's
# grouped fold (group ids, COUNT(*), AVG) on pooled scratch, the
# workload logger's per-query LogPoints, a layer scan's candidate
# narrowing over a built value index and a hierarchy refresh once each
# layer holds its sample array must stay at exactly 0 allocs/op
# (expr.TestConeKernelZeroAlloc, expr.TestAndFilterRangeZeroAlloc,
# engine.TestGroupFoldZeroAlloc, workload.TestLogPointsZeroAlloc,
# impression.TestNarrowZeroAlloc, impression.TestRefreshZeroAlloc).
bench-alloc:
	$(GO) test -run='ZeroAlloc' -v ./internal/expr/... ./internal/engine/... ./internal/workload/... ./internal/impression/...

# Seeded, deterministic chaos suite under the race detector: >=100
# injected faults (errors, panics, latency) across five fault points
# against a booted server with concurrent clients and ingest — over both
# the HTTP and binary wire transports — plus the daemon's SIGTERM drain
# test. A failure replays from the seed printed in the test log.
chaos:
	$(GO) test -race -run='^(TestChaos|TestChaosWire|TestGracefulDrainOnSIGTERM)$$' -v ./internal/server ./internal/wire ./cmd/sciborqd

# Run the HTTP/JSON query server on :8080 over synthetic SkyServer data.
server:
	$(GO) run ./cmd/sciborqd

# Boot sciborqd and execute every curl example in docs/SERVER.md
# verbatim against it (the docs-cannot-rot check; see the CI job).
server-smoke:
	./scripts/server_smoke.sh

fmt:
	@diff=$$(gofmt -l .); \
	if [ -n "$$diff" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$diff" >&2; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

ci: build vet fmt test race bench bench-smoke bench-alloc chaos crash fuzz

# Non-test Go lines outside bench/ — the size ROADMAP tracks; each
# simplicity PR reports it. Not part of ci.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
