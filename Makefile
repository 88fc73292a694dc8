# Development and CI entry points. CI (.github/workflows/ci.yml) invokes
# exactly these targets, so a green `make ci` locally means a green build.

GO ?= go

# bench-json knobs: a short benchtime keeps CI cheap; raise it locally for
# publication-quality ns/op numbers (B/op and allocs/op are stable either way).
BENCHTIME ?= 0.3s
BENCH_LABEL ?= local

.PHONY: all build test race bench bench-smoke bench-json bench-check lint escape-gate vulncheck fmt fmt-check fuzz-smoke serve-smoke chaos-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the packages with concurrent construction, query and serving
# paths (the server's cache/single-flight machinery is lock-based, the
# hot-reload epoch swap and the chaos injector run under concurrent load,
# and all must stay race-clean). perfecthash and btree are included because
# their immutable tables are probed from many goroutines in the sharded
# index. internal/core alone takes ~12 minutes under -race on a 2-vCPU
# machine, past go test's 10-minute default; the explicit timeout gives it
# twice that.
race:
	$(GO) test -race -timeout 25m ./internal/core/... ./internal/geodesic/... ./internal/server/... ./internal/chaos/... \
		./internal/perfecthash/... ./internal/btree/...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# One iteration of every benchmark: catches bit-rot without burning CI time.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Run the root suite and the in-process server benchmarks (internal/server:
# one request through Handler().ServeHTTP per endpoint) with -benchmem and
# append a labeled run to BENCH_perf.json —
# the measured perf trajectory every perf PR records itself into and diffs
# against. CI uploads the file as an artifact on pushes to main. The server
# benchmarks and the root benchmarks named in MULTI_BENCH take five samples
# each, so `bench-check` has a spread to gate on; the rest of the root
# suite keeps one (-skip keeps the two root passes disjoint).
MULTI_BENCH = ^Benchmark(ColdStartFirstQuery|ColdFault|Fig8_QuerySE|Fig8_QueryFlat|BuildLOD)$$
bench-json:
	{ $(GO) test -bench=. -skip='$(MULTI_BENCH)' -benchmem -run='^$$' -benchtime=$(BENCHTIME) . && \
	  $(GO) test -bench='$(MULTI_BENCH)' -benchmem -run='^$$' -benchtime=$(BENCHTIME) -count=5 . && \
	  $(GO) test -bench=. -benchmem -run='^$$' -benchtime=$(BENCHTIME) -count=5 ./internal/server; } \
		| $(GO) run ./cmd/benchjson -label "$(BENCH_LABEL)" -o BENCH_perf.json

# Fail when the committed trajectory is missing, unparsable or empty — a
# corrupt BENCH_perf.json must not pass CI silently.
bench-check:
	$(GO) run ./cmd/benchjson -check -o BENCH_perf.json

# DOCLINT_PKGS is the surface whose exported declarations must carry doc
# comments (cmd/doclint). Grows with the codebase; keep new packages clean.
DOCLINT_PKGS = . ./internal/core ./internal/server ./internal/terrain \
	./internal/geodesic ./internal/btree ./internal/perfecthash \
	./internal/baseline ./internal/gen ./internal/geom ./internal/steiner \
	./internal/chaos ./internal/exp ./internal/analysis \
	./cmd/sequery ./cmd/seserve ./cmd/benchjson ./cmd/doclint ./cmd/loadgen \
	./cmd/seconvert ./cmd/sebuild ./cmd/terraingen ./cmd/experiments \
	./cmd/sealint

# lint is vet + doc-comment coverage + the sealint invariant suite
# (mapiter, hotpath, marshalfirst, ctxward, atomicfield — see
# docs/ARCHITECTURE.md "Static invariants").
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/doclint $(DOCLINT_PKGS)
	$(GO) run ./cmd/sealint ./...

# The build-mode half of the hot-path guarantee: compile with -gcflags=-m
# and fail if any //sealint:hotpath function gains a compiler-proved heap
# allocation (see scripts/escape_gate.sh).
escape-gate:
	sh scripts/escape_gate.sh

# Informational locally (skips when govulncheck is absent); CI installs the
# tool and blocks on stdlib findings (the module has no other dependencies).
vulncheck:
	sh scripts/vulncheck.sh

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Exercise the decoder, compact-hash lookup and request-body scanner fuzz
# targets briefly (CI runs this non-blocking). FuzzLookup fuzzes
# perfecthash.BuildCompact and the compact probe.
fuzz-smoke:
	$(GO) test -fuzz=Fuzz -fuzztime=10s -run='^$$' ./internal/core
	$(GO) test -fuzz=FuzzLookup -fuzztime=10s -run='^$$' ./internal/perfecthash
	$(GO) test -fuzz=FuzzBatchBody -fuzztime=10s -run='^$$' ./internal/server
	$(GO) test -fuzz=FuzzMatrixBody -fuzztime=10s -run='^$$' ./internal/server

# End-to-end build/store/serve pipeline: generate a terrain, build se and
# a2a index containers, serve them with seserve, and assert curl'd answers
# match sequery's (see scripts/serve_smoke.sh). Wired into CI.
serve-smoke:
	sh scripts/serve_smoke.sh

# Robustness rehearsal: corrupt a member body, assert strict refusal vs
# degraded quarantine + quorum behavior, fire loadgen at a chaos-injected
# server, and recover via SIGHUP hot reload (see scripts/chaos_smoke.sh).
chaos-smoke:
	sh scripts/chaos_smoke.sh

ci: fmt-check lint build test race bench-check escape-gate chaos-smoke
