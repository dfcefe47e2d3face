# hetsim build and verification targets.
#
# `make check` is the tier-1 verification gate: build + vet + full test
# suite + race-detector pass over the experiment harness (the only part
# of the tree that runs simulations concurrently).

GO ?= go

.PHONY: all build test race vet check bench bench-compare bench-sweep bench-serve serve cluster cluster-smoke trace-smoke topology-smoke lanes-smoke migration-smoke tune-smoke probe-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the packages that exercise concurrency: the laned event
# engine and the lane determinism suite (parallel in-run lanes with
# cross-lane mailbox traffic), the worker-pool sweep executor, every
# figure sweep dispatched through it, the daemon's job queue / two-tier
# cache, the cluster coordinator's dispatch and heartbeat paths, the
# autotuner's multi-worker searches, and the telemetry recorder fed by all
# of them in parallel.
race:
	$(GO) test -race ./internal/sim/ ./internal/experiments/... ./internal/serve/ ./internal/cluster/ ./internal/telemetry/ ./internal/metrics/ ./internal/tune/

vet:
	$(GO) vet ./...

check: build vet test race topology-smoke lanes-smoke migration-smoke tune-smoke probe-smoke

# Tier-1 performance snapshot: the event-engine microbenchmarks (including
# the event queue on the simulator's measured delay mix), the per-layer
# microbenchmarks (L2 cache, MSHR stall drain, DRAM channel, coalescer,
# TLB, page-table translation, per-warp RNG seeding and warp-program
# generation) and the figure-level simulator benchmarks,
# with allocation counts, captured to a per-commit JSON artifact
# (BENCH_<sha>.json) via cmd/benchjson. The raw `go test -bench` text is tee'd so benchstat can
# diff two snapshots.
BENCH_SHA := $(shell git rev-parse --short HEAD)
bench:
	{ $(GO) test -bench 'BenchmarkEngine|BenchmarkLanedThroughput' -run - -benchmem ./internal/sim/ && \
	  $(GO) test -bench 'BenchmarkLookupHit|BenchmarkLookupMissInsert|BenchmarkMSHRStallDrain' -run - -benchmem ./internal/cache/ && \
	  $(GO) test -bench 'BenchmarkChannelAccess' -run - -benchmem ./internal/dram/ && \
	  $(GO) test -bench 'BenchmarkCoalesce' -run - -benchmem ./internal/gpu/ && \
	  $(GO) test -bench 'BenchmarkSourceSeed|BenchmarkWarpPrograms' -run - -benchmem ./internal/workloads/ && \
	  $(GO) test -bench 'BenchmarkLookup$$' -run - -benchmem ./internal/tlb/ && \
	  $(GO) test -bench 'BenchmarkTranslate' -run - -benchmem ./internal/vm/ && \
	  $(GO) test -bench 'BenchmarkMigrationEpoch' -run - -benchmem ./internal/migrate/ && \
	  $(GO) test -bench 'BenchmarkTuneSearch' -run - -benchmem -benchtime 1x ./internal/tune/ && \
	  $(GO) test -bench 'BenchmarkSimulatorThroughput' -run - -benchmem . && \
	  $(GO) test -bench 'BenchmarkFig2aBandwidthSensitivity' -run - -benchmem -benchtime 1x . ; } \
	  | tee bench_$(BENCH_SHA).txt
	$(GO) run ./cmd/benchjson -commit $(BENCH_SHA) < bench_$(BENCH_SHA).txt > BENCH_$(BENCH_SHA).json
	@echo wrote BENCH_$(BENCH_SHA).json

# Benchmark guardrail: take a fresh snapshot and diff it against the
# committed baseline, failing on regressions beyond BENCH_THRESHOLD
# percent on ns/op. CI runs this non-blocking (shared runners are noisy);
# locally it is the quick "did I slow the simulator down" check.
BENCH_BASELINE ?= BENCH_127d4e7.json
BENCH_THRESHOLD ?= 25
bench-compare: bench
	$(GO) run ./cmd/benchjson compare -threshold $(BENCH_THRESHOLD) \
	  $(BENCH_BASELINE) BENCH_$(BENCH_SHA).json

# Sweep-scaling headline: the Figure 2a grid with one worker vs all CPUs.
bench-sweep:
	$(GO) test -bench 'Fig2aSweep' -run - -benchtime 1x ./internal/experiments/

# Daemon serving-path headline: HTTP round-trip latency of a fully cached
# figure request against an in-process hmserved (job dedup, no simulation).
bench-serve:
	$(GO) test -bench 'ServeFigureRoundTrip' -run - -benchmem ./internal/serve/

# Run the simulation daemon locally (ctrl-C drains gracefully). Results
# persist in .hmserved-cache/ across restarts; see EXPERIMENTS.md.
serve:
	$(GO) run ./cmd/hmserved

# Start a 3-worker hmserved fleet on localhost:18081-18083 (ctrl-C drains
# and stops all of them); point hmexp -cluster or hmserved -cluster at it.
cluster:
	scripts/cluster.sh fleet 3

# End-to-end cluster check: 2 workers + a coordinator, one figure fetched
# through the fleet, output diffed byte-for-byte against a local render.
cluster-smoke:
	scripts/cluster.sh smoke

# End-to-end topology check: a tiny figure sweep on every memory-topology
# preset (k40-ddr4, gh200, cxl-expansion), on real binaries: k40-ddr4 must
# be byte-identical to the Table 1 default, the new presets must actually
# change the output, hmserved must serve ?topology= identically to local
# renders, and all three CLIs must reject unknown presets with exit 2.
topology-smoke:
	scripts/topology_smoke.sh

# End-to-end lane check on real binaries: hmsim and hmexp output must be
# byte-identical at -lanes 1 and -lanes 8, and all three CLIs must reject
# an invalid -lanes with exit 2.
lanes-smoke:
	scripts/lanes_smoke.sh

# End-to-end migration check on real binaries: figmigtopo renders on every
# preset byte-identically across reruns, -migrate off changes nothing,
# hmserved serves ?migrate= identically to local renders, and all three
# CLIs reject invalid -migrate specs with exit 2.
migration-smoke:
	scripts/migration_smoke.sh

# End-to-end autotuning check on real binaries: hmexp -tune reports are
# byte-identical across processes, lane counts, worker counts, the daemon
# (POST /v1/tune), and cluster dispatch; bad specs get 422 from the daemon
# and exit 2 from the CLIs.
tune-smoke:
	scripts/tune_smoke.sh

# End-to-end flight-recorder check on real binaries: -json and figure CSVs
# are byte-identical with probes on or off (including multi-lane runs),
# probed series dumps and Chrome-trace counter tracks validate with
# hmtrace counters, hmexp -list enumerates the registry, figdyn renders
# deterministically, hmserved streams ?probe= jobs over /progress, and
# invalid -probe specs get exit 2.
probe-smoke:
	scripts/probe_smoke.sh

# End-to-end telemetry check: a tiny sweep through a 2-worker fleet with
# -trace-out, then the emitted Chrome/Perfetto trace (trace-smoke.json)
# is validated with hmtrace. CI uploads the file as an artifact, so every
# run leaves an openable timeline behind.
trace-smoke:
	scripts/cluster.sh trace

clean:
	$(GO) clean ./...
