# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; staticcheck and govulncheck additionally run there with
# pinned versions and are invoked here only if already on PATH.

GO ?= go

.PHONY: all build test race race-shard bench bench-kernel bench-scale bench-spectrum bench-geo lint lint-report vet trace

all: build lint test

build:
	$(GO) build ./...

# -short runs every mechanism end to end at smoke scale.
test:
	$(GO) test -short -timeout 10m ./...

race:
	$(GO) test -race -short -timeout 30m ./...

# Same suite on 4-shard kernel groups: every deployment runs through the
# conservative window engine, so the cross-shard synchronization is
# race-clean under real concurrency, not just deterministic.
race-shard:
	CLOUDBENCH_SHARDS=4 $(GO) test -race -short -timeout 30m ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' -short -timeout 15m ./...

# Kernel hot-path benchmarks (scheduler, spawn churn, queue cycle) at
# stable iteration counts, archived as a JSON artifact (see DESIGN.md §9).
bench-kernel:
	$(GO) test -bench='KernelSleep|KernelScheduleWheel|SpawnChurn|QueueRing' \
		-benchmem -benchtime=20x -run='^$$' ./internal/sim . \
		| $(GO) run ./cmd/benchjson -o BENCH_kernel.json
	@cat BENCH_kernel.json

# Deployment-scale scaling curve: the 512-node, million-session megascale
# deployment at 1/2/4/8 shards, archived with the host's GOMAXPROCS and
# CPU count (benchjson records both — the curve is uninterpretable
# without them). Expect minutes of wall clock; needs ≥8 host cores to
# show the 8-shard speedup. SCALE_ARGS adds e.g. -short for the CI smoke.
SCALE_ARGS ?=
bench-scale:
	$(GO) test -bench='^BenchmarkMegaScale$$' -benchmem -benchtime=1x -run='^$$' $(SCALE_ARGS) -timeout 60m . \
		| $(GO) run ./cmd/benchjson -o BENCH_scale.json
	@cat BENCH_scale.json

# Replication-spectrum headline artifact: the three-backend grid at smoke
# scale with the async object store's stale-% and t-visibility p99 as
# reported metrics, archived beside the kernel numbers (DESIGN.md §11).
bench-spectrum:
	$(GO) test -bench=Spectrum -benchmem -benchtime=1x -run='^$$' -short -timeout 15m . \
		| $(GO) run ./cmd/benchjson -o BENCH_spectrum.json
	@cat BENCH_spectrum.json

# Geo headline artifact: the SLA cell's fixed-EACH_QUORUM versus adaptive
# write p99 (and the adaptive client's staleness cost) over the 80ms WAN
# at smoke scale, archived beside the other numbers (DESIGN.md §13).
bench-geo:
	$(GO) test -bench='^BenchmarkGeo$$' -benchmem -benchtime=1x -run='^$$' -short -timeout 15m . \
		| $(GO) run ./cmd/benchjson -o BENCH_geo.json
	@cat BENCH_geo.json

vet:
	$(GO) vet ./...

# simlint enforces the determinism, hot-path, isolation, and hook
# invariants (DESIGN.md "Static invariants", §12). Zero non-suppressed
# findings required. LINT_ANALYZERS selects a comma-separated subset
# (e.g. `make lint LINT_ANALYZERS=shardsafe,blockfree`); unknown names
# fail rather than silently skipping enforcement.
LINT_ANALYZERS ?=
lint: vet
	$(GO) run ./cmd/simlint $(if $(LINT_ANALYZERS),-analyzers $(LINT_ANALYZERS)) ./...
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || echo "staticcheck not installed; CI runs it pinned"

# The full suite plus the //simlint:ignore inventory and the wall-clock
# budget the CI job enforces: one process, one SSA/points-to build shared
# by all seven analyzers, under 60s even on a cold build cache.
lint-report:
	$(GO) run ./cmd/simlint -ignores -budget 60s ./...

# Per-phase latency decomposition at smoke scale: tracebreak.csv holds the
# phase-share grid, trace.json one span-retaining cell in Chrome
# trace-event format (load into chrome://tracing or Perfetto).
trace:
	$(GO) run ./cmd/replbench -experiment tracebreak -short -o tracebreak.csv -trace-out trace.json
