# Tier-1 gate: formatting, vet, build, race-enabled tests, shuffled
# tests, and a short parser fuzz smoke. CI and pre-commit both run
# `make ci`.

GO ?= go

.PHONY: ci fmt vet build test bench bench-smoke bench-verify race shuffle fuzz-smoke load-smoke churn-smoke serve-smoke store-smoke shard-prop cand-prop store-prop

ci: fmt vet build race shard-prop cand-prop store-prop fuzz-smoke serve-smoke store-smoke bench-verify

# gofmt enforcement: fail (listing the offenders) when any tracked Go
# file is not gofmt-clean.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race detection and order-independence in one suite run: -shuffle=on
# randomizes test and subtest order so hidden inter-test state can't
# go stale undetected, without paying for a second full execution.
race:
	$(GO) test -race -shuffle=on ./...

# The shuffled suite without the race detector (faster local loop).
shuffle:
	$(GO) test -shuffle=on ./...

# Sharded-search parity anchor: the scatter-gather answer sets must be
# bit-identical to the unsharded matchers for every registry family,
# strategy, and shard count — run shuffled and race-enabled so the
# concurrent fan-out is exercised in both orders. (The full `race`
# target also runs it; this explicit shuffled pass keeps the property
# gated even if the suite run above is ever narrowed.)
shard-prop:
	$(GO) test -race -shuffle=on -run 'TestShardParityProperty|TestSearchParity' ./match ./internal/shard

# Candidate-pruning parity anchor: a service with WithCandidateIndex
# must return answer sets bit-identical to one without, for every
# registry matcher family, threshold, and shard count — including
# across live snapshot churn — and Apply-maintained indexes must equal
# from-scratch builds. Race-enabled and shuffled like shard-prop.
cand-prop:
	$(GO) test -race -shuffle=on \
		-run 'TestCandidateParityProperty|TestCandidateParityUnderChurn|TestFilteredProblemParity|TestApplyMatchesScratch|TestShardCandidate' \
		./match ./internal/matching ./internal/candindex ./internal/shard

# Crash-safety anchor: the writer is killed at a random byte offset on
# every round, the store is reopened, and recovery must be bit-identical
# to the last committed state — run race-enabled and shuffled like the
# other property anchors, so it stays gated even if the suite run above
# is ever narrowed.
store-prop:
	$(GO) test -race -shuffle=on -run 'TestCrashRecoveryProperty' ./internal/store

# Short native-fuzzing smoke on the registry parser, the durable store
# loader, the similarity kernels, the search kernel (every matcher
# family against its frozen reference), the vocabulary-indexed cost
# tables (against per-cell scoring) and the streaming XML decoders
# (against the reflection decoder): five seconds each is enough to
# catch grammar, framing and parity regressions (the full corpus lives in the fuzz cache of
# whoever runs longer sessions).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzParseSpec' -fuzztime 5s ./match
	$(GO) test -run '^$$' -fuzz 'FuzzLoadTenant' -fuzztime 5s ./internal/store
	$(GO) test -run '^$$' -fuzz 'FuzzKernelParity' -fuzztime 5s ./internal/similarity
	$(GO) test -run '^$$' -fuzz 'FuzzSearchKernelParity' -fuzztime 5s ./internal/matchers
	$(GO) test -run '^$$' -fuzz 'FuzzVocabTables' -fuzztime 5s ./internal/matching
	$(GO) test -run '^$$' -fuzz 'FuzzReadRepository' -fuzztime 5s ./internal/xmlschema
	$(GO) test -run '^$$' -fuzz 'FuzzReadSchema' -fuzztime 5s ./internal/xmlschema

# Serving-layer smoke: the multi-tenant load driver on a tiny corpus,
# including the batched-vs-sequential throughput comparison.
load-smoke:
	$(GO) run ./cmd/matchload -tenants 2 -personals 2 -schemas 12 \
		-requests 40 -queue 64 -compare

# Live-update smoke under the race detector: schema churn interleaved
# with query traffic must complete with zero failed in-flight requests
# (the driver errors out otherwise) and no data races.
churn-smoke:
	$(GO) run -race ./cmd/matchload -tenants 2 -personals 2 -schemas 10 \
		-requests 40 -rate 150 -queue 64 -churn-rate 25

# Network-serving smoke: generate a corpus with schemagen, start
# matchd on a random port with tracing at 100% sampling, drive it over
# the wire with matchload -remote -trace (same seed and fleet shape,
# so tenant names and personals agree; the replay scrapes /metrics,
# validates every inline span trace against the request wall, and
# scrapes /debug/traces requiring well-formed span trees), then
# SIGTERM and require a clean drain — matchd exits non-zero if any
# admitted request was abandoned.
serve-smoke:
	@set -e; tmp=$$(mktemp -d); pid=""; \
	cleanup() { [ -n "$$pid" ] && kill "$$pid" 2>/dev/null; rm -rf "$$tmp"; }; \
	trap cleanup EXIT; \
	$(GO) run ./cmd/schemagen -out "$$tmp/corpus" -tenants 2 -personals 2 -schemas 12 -seed 1 >/dev/null; \
	$(GO) build -o "$$tmp/matchd" ./cmd/matchd; \
	"$$tmp/matchd" -corpus "$$tmp/corpus" -addr 127.0.0.1:0 -addr-file "$$tmp/addr" \
		-admin-token smoke-admin -trace-sample 1 -quiet & pid=$$!; \
	i=0; while [ ! -s "$$tmp/addr" ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -s "$$tmp/addr" ] || { echo "serve-smoke: matchd never wrote its address file"; exit 1; }; \
	$(GO) run ./cmd/matchload -tenants 2 -personals 2 -schemas 12 \
		-requests 40 -queue 64 -seed 1 -remote "$$(cat $$tmp/addr)" \
		-trace -remote-admin-token smoke-admin -quiet; \
	kill -TERM "$$pid"; wait "$$pid"; pid=""; \
	echo "serve-smoke: clean drain"

# Durable-store smoke, the full power-cycle: generate a corpus, boot
# matchd with -store-dir, churn every tenant over the wire (full-
# repository PUTs via matchload's remote churner), SIGTERM into the
# shutdown compaction, archive the store, reboot matchd from the store
# alone (no corpus), SIGTERM again, archive again — the two dumps must
# be bit-identical (the dump format is deterministic and carries no
# timestamps), and the dump must verify against the live store.
store-smoke:
	@set -e; tmp=$$(mktemp -d); pid=""; \
	cleanup() { [ -n "$$pid" ] && kill "$$pid" 2>/dev/null; rm -rf "$$tmp"; }; \
	trap cleanup EXIT; \
	$(GO) run ./cmd/schemagen -out "$$tmp/corpus" -tenants 2 -personals 2 -schemas 12 -seed 1 >/dev/null; \
	$(GO) build -o "$$tmp/matchd" ./cmd/matchd; \
	$(GO) build -o "$$tmp/matcharchive" ./cmd/matcharchive; \
	"$$tmp/matchd" -corpus "$$tmp/corpus" -store-dir "$$tmp/store" -admin-token smoke-admin \
		-addr 127.0.0.1:0 -addr-file "$$tmp/addr1" -quiet & pid=$$!; \
	i=0; while [ ! -s "$$tmp/addr1" ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -s "$$tmp/addr1" ] || { echo "store-smoke: matchd never wrote its address file"; exit 1; }; \
	$(GO) run ./cmd/matchload -tenants 2 -personals 2 -schemas 12 \
		-requests 40 -rate 150 -queue 64 -seed 1 -churn-rate 25 \
		-remote "$$(cat $$tmp/addr1)" -remote-admin-token smoke-admin -quiet; \
	kill -TERM "$$pid"; wait "$$pid"; pid=""; \
	"$$tmp/matcharchive" archive -store "$$tmp/store" -o "$$tmp/dump1"; \
	"$$tmp/matcharchive" verify -i "$$tmp/dump1" -store "$$tmp/store" >/dev/null; \
	"$$tmp/matchd" -store-dir "$$tmp/store" \
		-addr 127.0.0.1:0 -addr-file "$$tmp/addr2" -quiet & pid=$$!; \
	i=0; while [ ! -s "$$tmp/addr2" ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -s "$$tmp/addr2" ] || { echo "store-smoke: matchd never recovered from the store"; exit 1; }; \
	kill -TERM "$$pid"; wait "$$pid"; pid=""; \
	"$$tmp/matcharchive" archive -store "$$tmp/store" -o "$$tmp/dump2"; \
	cmp "$$tmp/dump1" "$$tmp/dump2"; \
	echo "store-smoke: durable state bit-identical across the power cycle"

# The benchmark module's own tests: the answer verifier, the load
# generator's accounting, and a tiny-scale smoke run of all four
# workloads plus the layer ladder (10–20 s). benchmark/ is a separate
# Go module, so the root suite never reaches it; run it offline against
# the working tree it replaces repro with.
bench-verify:
	cd benchmark && GOWORK=off GOPROXY=off GOTOOLCHAIN=local $(GO) test ./...

# Scoring-engine benchmarks: one cost-table build plus the exhaustive
# match through the scorer, and the per-pair metric and kernel costs.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineBuildAndMatch|BenchmarkMetric|BenchmarkKernel' -benchmem .

# Perf-harness smoke: run the engine and every figure benchmark — plus the
# four matcher-family benchmarks (each reports candidates/op), the
# incremental-vs-rebuild index maintenance benchmark, the 1-vs-4
# shard scatter-gather comparison, the served Server.Match path and
# the repository XML decoders — for a single iteration so harness rot
# (broken fixtures, diverged answer sets) is caught by the gate without
# paying full benchmark time.
bench-smoke:
	$(GO) test -run '^$$' \
		-bench 'BenchmarkEngineBuildAndMatch|BenchmarkFig|BenchmarkMatcher|BenchmarkIndexIncrementalVsRebuild|BenchmarkShardedScatterGather|BenchmarkCandidateIndex|BenchmarkKernel|BenchmarkServerMatch|BenchmarkReadRepository' \
		-benchtime 1x -benchmem . ./internal/xmlschema
