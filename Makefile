GO ?= go

.PHONY: build test race race-stress crash-smoke stream-smoke torture vet fmt bench-module bench-module-test cover fuzz b0-pairs size verify verify-full

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The -race run covers the concurrent Trigger Support stress test
# (TestSupportConcurrentAccess: Sessions over their own Event Bases from
# one shared type registry, beside readers and DDL refused while a
# Session is open), the session and oracle differential suites, and the
# internal/metrics linearizability tests; it is part of the tier-1
# verification.
race:
	$(GO) test -race ./...

# Concurrency stress under the race detector with forced parallelism:
# every test of the five packages whose state several goroutines reach
# — the store's transaction lines and snapshot readers, the engine's
# sessions, group commit and recovery, the Trigger Support's concurrent
# sessions and its block-boundary index, and the event-type registry's
# lock-free lookups racing registrations (an Event Base itself has one
# owner and no lock) — twice, with GOMAXPROCS pinned to 4 so
# goroutines genuinely interleave even on small CI runners. Selected by
# package, not by test name: a new test cannot be left out by a regex
# nobody updated.
race-stress:
	GOMAXPROCS=4 $(GO) test -race -count=2 \
		./internal/object/ ./internal/engine/ ./internal/rules/ ./internal/calculus/ \
		./internal/event/

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
# and WAL bytes), close/commit semantics, refused batches that roll back
# to their savepoint and keep every batch before them (budget, MaxEvents
# and MaxRuleExecutions kills, in memory and durable), drop accounting,
# retention flatness under a watermark-pinning rule, clock-driven idle
# sweeps, and the multi-producer soak (see DESIGN.md §15).
stream-smoke:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/stream/

# Torture matrix under the race detector: adversarial rule sets against
# the resource-governance machinery (gas/deadline kills, Event Base
# bounds, parser limits, crash-during-budget-kill recovery, killed
# sessions vs concurrent peers), plus a short adversarial fuzz pass.
# Every test of the package, selected by package like race-stress, with
# the refused-block differential at 128 seeds (16 in tier-1).
# Deterministic and time-capped; part of CI.
torture:
	$(GO) test -race -count=1 -timeout 5m ./internal/torture/ -torture.seeds 128
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
# recorded baseline (87.1% when last measured; the floor, 1.5 points
# lower, leaves room for platform-dependent branches). It
# measures the packages that have tests, as it did when introduced:
# since Go 1.22 ./... also reports the packages without tests (cmd/) at
# 0%. The examples/ programs have tests (each compares its output with
# testdata/stdout.golden), so they count.
COVER_BASELINE ?= 85.6
COVER_PKGS = $(shell $(GO) list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}{{end}}' ./...)
cover:
	$(GO) test -count=1 -coverprofile=coverage.out $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | grep -o '[0-9.]*%' | tr -d '%'); \
	awk -v t=$$total -v b=$(COVER_BASELINE) 'BEGIN { \
	  if (t+0 < b+0) { printf "FAIL: coverage %.1f%% below baseline %.1f%%\n", t, b; exit 1 } \
	  printf "coverage %.1f%% (baseline %.1f%%)\n", t, b }'

# Fuzz smoke: 20 seconds of random command scripts through a fully
# instrumented engine, asserting no panic and balanced lifecycle spans,
# then 10 seconds of mutated checkpoints through the checkpoint decoder,
# asserting it returns an error or decodes, never panics, then 10
# seconds of decoded rule sets and block-cut histories through the
# Trigger Support's arrival walk, asserting it fires what the
# all-arrivals oracle fires, at the same instants, then 5 seconds each
# of mutated expressions, rule definitions and commands through the
# parser, asserting it never panics, that an accepted expression prints
# and parses back the same and that an accepted rule validates. Every
# func Fuzz* of the module must be run here or by torture
# (TestEveryFuzzerIsRun).
fuzz:
	$(GO) test ./internal/engine/ -run '^$$' -fuzz FuzzEngineBlock -fuzztime 20s
	$(GO) test ./internal/engine/ -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime 10s
	$(GO) test ./internal/rules/ -run '^$$' -fuzz FuzzSignedProbing -fuzztime 10s
	$(GO) test ./internal/lang/ -run '^$$' -fuzz FuzzParseExpr -fuzztime 5s
	$(GO) test ./internal/lang/ -run '^$$' -fuzz FuzzParseRule -fuzztime 5s
	$(GO) test ./internal/lang/ -run '^$$' -fuzz FuzzParseCommand -fuzztime 5s

# Alternating parent/change passes of the B0 benchmark, PAIRS of them per
# workload, with every pass's output kept under .b0-pairs/ and a summary
# per end-to-end metric: the parent's median and IQR, the change's median
# and the pairs the change won; then three traced passes per side and
# workload, alternating which side goes first, printing every per-layer
# metric as each side's median. Takes (PAIRS + 3) × workloads × ~2 ×
# (SECONDS + set-up); not part of verify.
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
