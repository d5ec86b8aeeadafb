GO ?= go

.PHONY: build test race race-stress crash-smoke stream-smoke torture vet fmt bench-module bench-module-test cover fuzz b0-pairs size verify verify-full

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
# every test of the four packages whose state several goroutines reach
# — the store's transaction lines and snapshot readers, the engine's
# sessions, group commit and recovery, the Trigger Support's concurrent
# sessions and its block-boundary index, the evaluators' lifts (each
# with its own fold tables) beside an appender of the Event Base they
# read — twice, with GOMAXPROCS pinned to 4 so goroutines genuinely
# interleave even on small CI runners. Selected by package, not by test
# name: a new test cannot be left out by a regex nobody updated.
race-stress:
	GOMAXPROCS=4 $(GO) test -race -count=2 \
		./internal/object/ ./internal/engine/ ./internal/rules/ ./internal/calculus/

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

# Formatting gate: fails, listing the files, if gofmt would rewrite any Go
# file of the repository, the nested benchmark/ module included.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

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

# Coverage gate: total statement coverage must not fall below the
# recorded baseline (81.3% when last measured; the floor leaves ~1.5
# points of slack for platform-dependent branches). It
# measures the packages that have tests, as it did when introduced:
# since Go 1.22 ./... also reports cmd/ and examples/, which have none,
# at 0%.
COVER_BASELINE ?= 79.8
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
# and the pairs the change won; then one traced pass per side and
# workload, printing every per-layer metric for both. Takes (PAIRS + 1) ×
# workloads × ~2 × (SECONDS + set-up); not part of verify.
PARENT ?= HEAD~1
PAIRS ?= 10
SEED ?= 7
SECONDS ?= 10
WORKLOADS ?= stream_rules
b0-pairs:
	bash scripts/b0-pairs.sh "$(PARENT)" "$(PAIRS)" "$(SEED)" "$(SECONDS)" "$(WORKLOADS)"

# How large the production code is: non-test Go lines outside
# benchmark/ and exported top-level identifiers, per package and in
# total (scripts/size.go).
size:
	$(GO) run scripts/size.go

verify: build fmt test race vet bench-module

verify-full: verify bench-module-test cover fuzz
