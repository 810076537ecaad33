# Developer entry points. `make check` is the pre-commit gate: it builds
# everything, vets, runs the full test suite, re-runs the concurrency-
# sensitive packages (transport + round runtime + device fault layer) under
# the race detector, smoke-runs the fuzz targets, compiles-and-runs every
# HE-stack benchmark once so benchmark code cannot bit-rot, runs the
# CI-sized multi-fault chaos soak under the race detector, runs the small-N
# cross-device scale sweep (flat vs tree bit-exactness and the coordinator
# memory bound) under the race detector, runs the CI-sized round-anatomy
# sweep (optimized round path bit-exact with the seed path and never slower)
# under the race detector, and runs the CI-sized multi-device sharding sweep
# (near-linear scaling, bit-exact results, work stealing under a mid-batch
# device kill) under the race detector, and vets and tests the benchmark
# module in perfbench/.

GO ?= go
STATICCHECK ?= staticcheck

.PHONY: build test vet lint race fuzz bench-smoke soak-smoke scale-smoke round-smoke devset-smoke perfbench-test check resilience devfault soak scale round devset

build:
	$(GO) build ./...

# -shuffle=on randomizes test order within each package so tests that only
# pass because of accidental ordering are flushed out instead of fossilized.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. CI installs and runs staticcheck
# unconditionally (see .github/workflows/ci.yml); locally the target tells
# you how to get it rather than silently passing.
lint: vet
	@command -v $(STATICCHECK) >/dev/null 2>&1 || { \
		echo "staticcheck not found; install with:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@latest"; \
		exit 1; }
	$(STATICCHECK) ./...

# The chaos/quorum suites and the device fault/watchdog/failover paths
# exercise goroutines, deadlines, and shared counters; they must stay clean
# under -race and finish with time to spare.
race:
	$(GO) test -race -timeout 300s ./internal/flnet/... ./internal/fl/... ./internal/gpu/... ./internal/ghe/...

# Short fuzz passes: device-config validation (corpus under
# internal/gpu/testdata/fuzz), the shard splitter's partition invariants
# (contiguous, complete, non-overlapping for any item count and device
# exclusion set), and the chunk reassembler's untrusted-input invariants
# (out-of-range indices, flip-flopping totals, oversized declarations must
# all reject typed, never panic).
fuzz:
	$(GO) test ./internal/gpu -run '^$$' -fuzz FuzzConfigValidate -fuzztime 10s
	$(GO) test ./internal/gpu -run '^$$' -fuzz FuzzSplitShards -fuzztime 10s
	$(GO) test ./internal/flnet -run '^$$' -fuzz FuzzReassembler -fuzztime 10s

# One iteration of every benchmark in the HE hot-path packages: catches
# benchmarks that no longer compile or crash without paying for real timing
# runs.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/mpint ./internal/ghe ./internal/paillier

# The CI-sized chaos soak (DESIGN.md §11): seeded network chaos + device
# faults + coordinator kills with journal recovery + client churn, every
# completed round checked against the plaintext oracle, all under -race.
soak-smoke:
	$(GO) test -race -run TestSoakSmoke -timeout 300s -count 1 ./internal/fl

# The cross-device scale sweep at CI-affordable client counts (DESIGN.md
# §13): tree rounds must decrypt bit-identically to flat and the
# coordinator's live-ciphertext peak must stay bounded by fanout·depth.
scale-smoke:
	$(GO) test -race -run TestScaleSmoke -timeout 300s -count 1 ./internal/bench

# The round-anatomy sweep at CI-affordable key sizes (DESIGN.md §14): the
# optimized round path (nonce-pool rearm + wave overlap) must stay bit-exact
# with the seed path across plain/chunked/defended/tree/classic rounds and
# crash recovery, and must never be slower.
round-smoke:
	$(GO) test -race -run TestRoundSmoke -timeout 300s -count 1 ./internal/bench

# The multi-device sharding sweep at CI size (DESIGN.md §15): D ∈ {1, 2}
# with bit-exact rows, a real speedup at D=2, and a mid-batch device kill
# that steals the dead device's shards without diverging.
devset-smoke:
	$(GO) test -race -run TestDevsetSmoke -timeout 300s -count 1 ./internal/bench

# perfbench/ is a nested module (its own go.mod, importing this one through
# a replace directive), so `./...` above never compiles it. It reads fl's
# context, fault report, and device counters; vetting and testing it here
# keeps an fl refactor from silently breaking the repository benchmark.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

check: build vet test race fuzz bench-smoke soak-smoke scale-smoke round-smoke devset-smoke perfbench-test

# Demonstrate graceful degradation under a straggler (see DESIGN.md §6).
resilience:
	$(GO) run ./cmd/flbench -keys 1024 -epochs 4 resilience

# Demonstrate resilient GPU-HE execution: transient faults retried and
# verified, a mid-round device kill failing over bit-exact (DESIGN.md §7).
devfault:
	$(GO) run ./cmd/flbench -keys 1024 -epochs 4 devfault

# The full 60-round multi-fault chaos soak; regenerates BENCH_soak.json
# (run from the repo root so the summary lands next to its siblings).
soak:
	$(GO) run ./cmd/flbench soak

# The full 10²→10⁵ cross-device client sweep; regenerates BENCH_scale.json.
scale:
	$(GO) run ./cmd/flbench scale

# The round-anatomy sweep at production keys; regenerates BENCH_round.json
# and enforces the ≥1.15x end-to-end plain-round speedup floor.
round:
	$(GO) run ./cmd/flbench -keys 2048 round

# The multi-device sharding sweep at production keys; regenerates
# BENCH_devset.json and enforces the ≥0.75·D near-linear scaling gate plus
# the 1-of-D death leg's bit-exactness and throughput bound.
devset:
	$(GO) run ./cmd/flbench -keys 2048 devset
