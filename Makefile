GO ?= go

.PHONY: build test race race-stress crash-smoke stream-smoke torture vet bench-module bench-module-test bench bench-smoke profile cover fuzz b0-pairs verify verify-full

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The -race run covers the concurrent Trigger Support stress test
# (TestSupportConcurrentAccess), the session and oracle differential
# suites, and the internal/metrics linearizability tests; it is part of
# the tier-1 verification.
race:
	$(GO) test -race ./...

# Concurrency stress under the race detector with forced parallelism:
# every test of the three packages whose state several goroutines reach
# — the store's transaction lines and snapshot readers, the engine's
# sessions, group commit and recovery, the Trigger Support's concurrent
# sessions and its block-boundary index — twice, with GOMAXPROCS
# pinned to 4 so goroutines genuinely interleave even on small CI
# runners. Selected by package, not by test name: a new test cannot be
# left out by a regex nobody updated.
race-stress:
	GOMAXPROCS=4 $(GO) test -race -count=2 \
		./internal/object/ ./internal/engine/ ./internal/rules/

# Crash/recovery smoke under the race detector: every test of the three
# packages recovery runs through — the engine's kill-and-recover
# differential suite (random crash points, bit-identical replay), WAL
# truncation/corruption recovery and checkpoint bounds; the FileStore
# fault-injection tests (failing writer, failing fsync, torn tails,
# flipped CRC frames, leftover temp checkpoint); the Event Base's segment
# codec and restored-index oracle. Selected by package, like race-stress;
# a test too slow for this tier gates itself on testing.Short().
crash-smoke:
	$(GO) test -race -count=1 \
		./internal/engine/ ./internal/storage/ ./internal/event/

# Streaming-mode suite under the race detector with forced parallelism:
# the stream-vs-replay differential (bit-identical store, marks, clock
# and WAL bytes), close/commit semantics, budget-kill recovery with
# pipeline continuation, drop accounting, retention flatness under a
# watermark-pinning rule, clock-driven idle sweeps, and the
# multi-producer soak (see DESIGN.md §15).
stream-smoke:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/stream/

# Torture matrix under the race detector: adversarial rule sets against
# the resource-governance machinery (gas/deadline kills, Event Base
# bounds, parser limits, crash-during-budget-kill recovery, killed
# sessions vs concurrent peers), plus a short adversarial fuzz pass.
# Every test of the package, selected by package like race-stress.
# Deterministic and time-capped; part of CI.
torture:
	$(GO) test -race -count=1 -timeout 5m ./internal/torture/
	$(GO) test ./internal/torture/ -run '^$$' -fuzz FuzzAdversarialRules -fuzztime 15s

vet:
	$(GO) vet ./...

# benchmark/ is a nested module that calls internal packages directly
# (benchmark/kernels.go) and that `./...` above does not reach: build and
# vet it here, so that an internal API change that breaks it fails tier-1
# and not the next benchmark run.
bench-module:
	$(GO) -C benchmark build -o /dev/null ./...
	$(GO) -C benchmark vet ./...

# The benchmark's own smoke pass (~9 s): every workload end to end with
# its correctness gates. A change that makes the driver's run fail is
# invisible to `go test ./...` in the root module; it fails here.
bench-module-test:
	$(GO) -C benchmark test ./...

# Full measured-experiment sweep (B1–B5, B9, B10, B12, B14–B16);
# BENCH_eb.json holds the machine-readable B9 Event Base soak,
# BENCH_obs.json the B10 observability-overhead run, BENCH_mt.json the
# B12 multi-session sweep, BENCH_wal.json the B14 WAL ingest-overhead
# and crash-recovery run, BENCH_stream.json the B15 streaming
# throughput and flat-memory soak, and BENCH_ro.json the B16
# snapshot-read scaling and group-commit sync-sharing run.
bench:
	$(GO) run ./cmd/chimera-bench
	$(GO) run ./cmd/chimera-bench -exp B9 -json BENCH_eb.json >/dev/null
	$(GO) run ./cmd/chimera-bench -metrics >/dev/null
	$(GO) run ./cmd/chimera-bench -exp B12 -json BENCH_mt.json >/dev/null
	$(GO) run ./cmd/chimera-bench -exp B14 -json BENCH_wal.json >/dev/null
	$(GO) run ./cmd/chimera-bench -exp B15 -json BENCH_stream.json >/dev/null
	$(GO) run ./cmd/chimera-bench -exp B16 -json BENCH_ro.json >/dev/null

# CI-sized B12 and B14..B16 runs: the acceptance cells (B12: 1 and 8
# lines, both workloads; B14: group-commit ingest configs and the
# smallest recovery image;
# B15: memory and memstore/off throughput plus a short soak;
# B16: 1 and 8 snapshot readers with 0 and 4 writers plus the
# group-commit sharing cells), each held against its committed
# baseline. chimera-benchcmp warns (exit 0) on >10% regressions —
# CI timing is too noisy to gate the build on, but the warning
# shows up in the log.
bench-smoke:
	$(GO) run ./cmd/chimera-bench -exp B12 -smoke -json BENCH_mt_smoke.json
	$(GO) run ./cmd/chimera-benchcmp -exp B12 BENCH_mt.json BENCH_mt_smoke.json
	$(GO) run ./cmd/chimera-bench -exp B14 -smoke -json BENCH_wal_smoke.json
	$(GO) run ./cmd/chimera-benchcmp -exp B14 BENCH_wal.json BENCH_wal_smoke.json
	$(GO) run ./cmd/chimera-bench -exp B15 -smoke -json BENCH_stream_smoke.json
	$(GO) run ./cmd/chimera-benchcmp -exp B15 BENCH_stream.json BENCH_stream_smoke.json
	$(GO) run ./cmd/chimera-bench -exp B16 -smoke -json BENCH_ro_smoke.json
	$(GO) run ./cmd/chimera-benchcmp -exp B16 BENCH_ro.json BENCH_ro_smoke.json

# CPU + heap profiles of one experiment (default: the B12
# multi-session sweep). Inspect with `go tool pprof cpu.pprof` /
# `mem.pprof`.
PROFILE_EXP ?= B12
profile:
	$(GO) run ./cmd/chimera-bench -exp $(PROFILE_EXP) -smoke \
		-json /dev/null -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof (exp $(PROFILE_EXP))"

# Coverage gate: total statement coverage must not fall below the
# recorded baseline (76.6% when the gate was introduced; the floor
# leaves ~1.5 points of slack for platform-dependent branches). It
# measures the packages that have tests, as it did when introduced:
# since Go 1.22 ./... also reports cmd/ and examples/, which have none,
# at 0%.
COVER_BASELINE ?= 75.0
COVER_PKGS = $(shell $(GO) list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}{{end}}' ./...)
cover:
	$(GO) test -count=1 -coverprofile=coverage.out $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | grep -o '[0-9.]*%' | tr -d '%'); \
	awk -v t=$$total -v b=$(COVER_BASELINE) 'BEGIN { \
	  if (t+0 < b+0) { printf "FAIL: coverage %.1f%% below baseline %.1f%%\n", t, b; exit 1 } \
	  printf "coverage %.1f%% (baseline %.1f%%)\n", t, b }'

# 20-second fuzz smoke: random command scripts through a fully
# instrumented engine, asserting no panic and balanced lifecycle spans.
fuzz:
	$(GO) test ./internal/engine/ -run '^$$' -fuzz FuzzEngineBlock -fuzztime 20s

# Alternating parent/change passes of the B0 benchmark, PAIRS of them per
# workload, with every pass's output kept under .b0-pairs/ and a summary
# per end-to-end metric: the parent's median and IQR, the change's median
# and the pairs the change won. Takes PAIRS × workloads × ~2 × (SECONDS +
# set-up); not part of verify.
PARENT ?= HEAD~1
PAIRS ?= 10
SEED ?= 7
SECONDS ?= 10
WORKLOADS ?= stream_rules
b0-pairs:
	bash scripts/b0-pairs.sh "$(PARENT)" "$(PAIRS)" "$(SEED)" "$(SECONDS)" "$(WORKLOADS)"

verify: build test race vet bench-module

verify-full: verify bench-module-test cover fuzz
