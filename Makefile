# Tier-1 gate: formatting, vet, build, race-enabled tests, shuffled
# tests, and a short parser fuzz smoke. CI and pre-commit both run
# `make ci`.

GO ?= go

.PHONY: ci fmt vet build test bench bench-smoke bench-verify race shuffle fuzz-smoke daemon-smoke shard-prop cand-prop store-prop

ci: fmt vet build race shard-prop cand-prop store-prop fuzz-smoke daemon-smoke bench-smoke bench-verify

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

# Daemon smoke on the real binary: generate a corpus with schemagen,
# boot matchd with a durable store, SIGTERM it and require a clean
# drain (signal handling, drain and shutdown compaction, exit 0),
# archive the store, reboot matchd from the store alone with the
# periodic compactor rewriting every log from itself, SIGTERM again and
# archive again. The two dumps must be bit-identical (the dump format
# is deterministic and carries no timestamps), and the first must
# verify against the live store. Wire traffic, churn under load,
# tracing and the churned-store power cycle are cmd/matchd's Go tests:
# TestDaemonServeAndDrain, TestDaemonTracing and
# TestDaemonColdStartRecovery.
daemon-smoke:
	@set -e; tmp=$$(mktemp -d); pid=""; \
	cleanup() { [ -n "$$pid" ] && kill "$$pid" 2>/dev/null; rm -rf "$$tmp"; }; \
	trap cleanup EXIT; \
	$(GO) run ./cmd/schemagen -out "$$tmp/corpus" -tenants 2 -personals 2 -schemas 12 -seed 1 >/dev/null; \
	$(GO) build -o "$$tmp/matchd" ./cmd/matchd; \
	$(GO) build -o "$$tmp/matcharchive" ./cmd/matcharchive; \
	"$$tmp/matchd" -corpus "$$tmp/corpus" -store-dir "$$tmp/store" \
		-addr 127.0.0.1:0 -addr-file "$$tmp/addr1" -quiet & pid=$$!; \
	i=0; while [ ! -s "$$tmp/addr1" ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -s "$$tmp/addr1" ] || { echo "daemon-smoke: matchd never wrote its address file"; exit 1; }; \
	kill -TERM "$$pid"; wait "$$pid"; pid=""; \
	"$$tmp/matcharchive" archive -store "$$tmp/store" -o "$$tmp/dump1"; \
	"$$tmp/matcharchive" verify -i "$$tmp/dump1" -store "$$tmp/store" >/dev/null; \
	"$$tmp/matchd" -store-dir "$$tmp/store" -compact-after 0 -compact-interval 20ms \
		-addr 127.0.0.1:0 -addr-file "$$tmp/addr2" -quiet & pid=$$!; \
	i=0; while [ ! -s "$$tmp/addr2" ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -s "$$tmp/addr2" ] || { echo "daemon-smoke: matchd never recovered from the store"; exit 1; }; \
	sleep 0.2; \
	kill -TERM "$$pid"; wait "$$pid"; pid=""; \
	"$$tmp/matcharchive" archive -store "$$tmp/store" -o "$$tmp/dump2"; \
	cmp "$$tmp/dump1" "$$tmp/dump2"; \
	echo "daemon-smoke: clean drains, durable state bit-identical across the power cycle"

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

# Perf-harness smoke: every Go benchmark of the root module for a
# single iteration, so harness rot (broken fixtures, diverged answer
# sets) fails the gate without paying full benchmark time.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...
