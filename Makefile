GO ?= go

# The smoke targets below run in ci to keep the benchmarks and the benchfmt
# pipeline from bit-rotting. They write to a temp file (seeded with the
# committed document when merging), so the committed BENCH_*.json files only
# ever hold full runs.

# The dispatch-heavy simulator scenarios, the event-engine micro-benchmarks
# under them, and the harness grid benchmark; all feed the BENCH_sim.json
# trajectory.
BENCH_PKGS = ./internal/sim ./internal/devent ./internal/harness
BENCH_PATTERN = 'BenchmarkSim|BenchmarkDevent|BenchmarkRunGrid'

# The bucketing-core and allocator hot-path scenarios, plus the end-to-end
# paper-pool simulation they dominate; these feed BENCH_alloc.json.
BENCH_ALLOC_PKGS = ./internal/core ./internal/allocator ./internal/sim
BENCH_ALLOC_PATTERN = 'BenchmarkCore|BenchmarkAlloc|BenchmarkSimPaperPool1k'

# The streaming macro-scenarios: million-task Source-driven runs and the
# capacity-index placement probes. Merged into BENCH_sim.json rather than
# rewriting it, since the full Stream1M run takes about a minute.
BENCH_STREAM_PKGS = ./internal/sim ./internal/dispatch
BENCH_STREAM_PATTERN = 'BenchmarkStream|BenchmarkPlacementIndex'

# The allocator-service throughput scenarios (sustained allocs/sec across
# concurrent tenants over real TCP connections); these feed BENCH_serve.json.
BENCH_SERVE_PKGS = ./internal/serve
BENCH_SERVE_PATTERN = 'BenchmarkServe'
# Ceiling for the service smoke run: the hand-rolled frame codec and the
# pooled call slots make a steady-state round-trip allocation-free (0
# allocs/op measured; the budget covers goroutine spin-up amortized across
# the 100-iteration smoke). Anything past this means the frame hot path
# started allocating again.
SERVE_MAX_ALLOCS = 8
# Ceiling for the streaming smoke run: BenchmarkStream100k measures ~140k
# allocs for a 100k-task run (setup plus ~0.4 allocs/task of retry and map
# traffic); anything past this means the engine regressed to per-task
# allocation.
STREAM_MAX_ALLOCS = 200000

# The live work-queue engine scenarios: full manager->worker->manager round
# trips over in-memory loopback connections at 1/8/64 workers plus the
# worker-churn overlay; these feed BENCH_wq.json (which also keeps the
# pre-codec encoding/json baseline entries for the before/after pair).
BENCH_WQ_PKGS = ./internal/wq
BENCH_WQ_PATTERN = 'BenchmarkWQ'
# Ceiling for the live-engine smoke run: a steady-state round trip costs 4
# allocs/op (outcome channel, task state, and reader/executor handoff); the
# headroom covers driver/executor goroutine spin-up amortized across the
# smoke iterations. Past this the wire hot path started allocating again.
WQ_MAX_ALLOCS = 8

.PHONY: all build test race test-live vet bench bench-smoke bench-alloc bench-alloc-smoke bench-stream bench-stream-smoke serve-bench serve-bench-smoke wq-bench wq-bench-smoke whatif-smoke short ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./... -count=1

# The parallel experiment harness is the concurrency-heavy package; run it
# (and the public facade that drives it) under the race detector, together
# with the pooled event engine, the simulator that recycles its
# slots/handles (harness workers run simulations concurrently) with its
# dispatch core, and the runlog package whose Writer is shared across engine and tracer goroutines.
race:
	$(GO) test -race ./internal/harness/... ./internal/devent/... ./internal/sim/... ./internal/dispatch/... ./internal/serve/... ./internal/runlog/... . -count=1

# The live work-queue engine integration tests (heartbeat loss, bounded
# retry, drain-under-load, ID-collision regressions) under the race detector.
test-live:
	$(GO) test -race ./internal/wq/... -count=1

vet:
	$(GO) vet ./...

short:
	$(GO) test ./... -short -count=1

# Full benchmark run: measures the simulator dispatch hot path and the
# experiment grid, then records the trajectory point in BENCH_sim.json
# (ns/op, B/op, allocs/op per scenario).
bench:
	$(GO) test $(BENCH_PKGS) -run '^$$' -bench $(BENCH_PATTERN) -benchmem | $(GO) run ./cmd/benchfmt -out BENCH_sim.json

# One-iteration smoke of the same suite.
bench-smoke:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test $(BENCH_PKGS) -run '^$$' -bench $(BENCH_PATTERN) -benchmem -benchtime 1x | $(GO) run ./cmd/benchfmt -out "$$tmp"

# Full benchmark run of the allocation path: bucketing-core partitions
# (cold and incremental), the allocator Allocate/Retry/Observe cycle per
# algorithm, and the paper-pool simulation; records BENCH_alloc.json.
bench-alloc:
	$(GO) test $(BENCH_ALLOC_PKGS) -run '^$$' -bench $(BENCH_ALLOC_PATTERN) -benchmem | $(GO) run ./cmd/benchfmt -out BENCH_alloc.json

# One-iteration smoke of the allocation-path suite.
bench-alloc-smoke:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test $(BENCH_ALLOC_PKGS) -run '^$$' -bench $(BENCH_ALLOC_PATTERN) -benchmem -benchtime 1x | $(GO) run ./cmd/benchfmt -out "$$tmp"

# Full streaming run: the 1M-task and 100k-task Source-driven scenarios plus
# the 100k-worker placement-index probes, merged into BENCH_sim.json.
bench-stream:
	$(GO) test $(BENCH_STREAM_PKGS) -run '^$$' -bench $(BENCH_STREAM_PATTERN) -benchmem | $(GO) run ./cmd/benchfmt -merge -out BENCH_sim.json

# ci smoke of the streaming path: the 100k-task scenario and the index
# probes, with the allocs/op ceiling enforced so the window-bounded memory
# contract cannot regress silently. (The capacity index's query correctness
# runs under -race via the dispatch package in the race target.)
bench-stream-smoke:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; cp BENCH_sim.json "$$tmp"; \
	$(GO) test $(BENCH_STREAM_PKGS) -run '^$$' -bench 'BenchmarkStream100k|BenchmarkPlacementIndex' -benchmem -benchtime 1x | $(GO) run ./cmd/benchfmt -merge -max-allocs $(STREAM_MAX_ALLOCS) -out "$$tmp"

# Full service benchmark: sustained allocation throughput against a live
# server at 1, 8, and 16 concurrent tenants; records BENCH_serve.json.
serve-bench:
	$(GO) test $(BENCH_SERVE_PKGS) -run '^$$' -bench $(BENCH_SERVE_PATTERN) -benchmem | $(GO) run ./cmd/benchfmt -out BENCH_serve.json

# ci smoke of the service path, with the per-round-trip allocs/op ceiling
# enforced so the frame hot path cannot silently start allocating. 1000
# iterations rather than 1 so the per-connection goroutine spin-up (up to 64
# driver goroutines started after the timer reset) amortizes out of
# allocs/op — steady state is 0 allocs/op, so the tight ceiling needs the
# setup noise below ~1/op (still tens of ms per scenario).
serve-bench-smoke:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test $(BENCH_SERVE_PKGS) -run '^$$' -bench $(BENCH_SERVE_PATTERN) -benchmem -benchtime 1000x | $(GO) run ./cmd/benchfmt -max-allocs $(SERVE_MAX_ALLOCS) -out "$$tmp"

# Full live-engine benchmark: sustained dispatch/result round trips through
# the wq manager and workers over loopback transport, merged into
# BENCH_wq.json so the recorded encoding/json baseline entries survive as
# the comparison point.
wq-bench:
	$(GO) test $(BENCH_WQ_PKGS) -run '^$$' -bench $(BENCH_WQ_PATTERN) -benchmem | $(GO) run ./cmd/benchfmt -merge -out BENCH_wq.json

# ci smoke of the live engine, with the per-round-trip allocs/op ceiling
# enforced so the frame hot path cannot silently start allocating. 2000
# iterations amortize the driver/executor goroutine spin-up below ~1/op.
wq-bench-smoke:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; cp BENCH_wq.json "$$tmp"; \
	$(GO) test $(BENCH_WQ_PKGS) -run '^$$' -bench $(BENCH_WQ_PATTERN) -benchmem -benchtime 2000x | $(GO) run ./cmd/benchfmt -merge -max-allocs $(WQ_MAX_ALLOCS) -out "$$tmp"

# End-to-end smoke of the record -> replay -> what-if loop: record a small
# DES run on a churny pool, verify the fidelity replay reproduces the
# recorded footer bit-identically, and rank two counterfactual allocators
# against it. Exercises the same path as `whatif <any saved run log>`.
whatif-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/vinesim -workflow normal -tasks 120 -algorithm greedy-bucketing \
		-des -pool churn:8:600:120:2000 -log "$$tmp/rec.jsonl" >/dev/null 2>&1 && \
	$(GO) run ./cmd/whatif -fidelity -algorithms greedy-bucketing,max-seen -j 2 "$$tmp/rec.jsonl"

ci: vet build test race test-live whatif-smoke bench-smoke bench-alloc-smoke bench-stream-smoke serve-bench-smoke wq-bench-smoke

clean:
	rm -rf figures-out
