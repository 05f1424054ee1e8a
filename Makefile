GO ?= go

.PHONY: all build test check lint bench bench-guard

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint: vet plus gofmt drift, plus staticcheck when the host has it (the
# container does not ship it; nothing is installed on demand).
lint:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; else \
		echo "staticcheck not installed; skipped"; fi

# check is the pre-merge gate: lint, build, race-test the consensus, crypto,
# ordering, persistence, transport, observability, export and baseline
# packages, race-test WAL durability and crash-restart recovery plus a chaos
# crash/partition smoke (which now also asserts the consensus event journal),
# fuzz the WAL, batch-verify, PrePrepare-reference and block-run decoders
# and the block store's recovery of its last segment briefly, and smoke-run
# the verification, batching, and transport benchmarks once (with the
# allocation benchmarks of the sealing, digest, bus ingest and receive paths) so a broken
# benchmark cannot rot unnoticed. zcbench is its own Go
# module, so the root build never compiles it: vet and self-test it here.
check: lint
	$(GO) build ./...
	$(GO) test -race ./internal/pbft/... ./internal/crypto/...
	$(GO) test -race ./internal/core ./internal/blockchain
	$(GO) test -race ./internal/transport
	$(GO) test -race ./internal/wal ./internal/node
	$(GO) test -race ./internal/obsv ./internal/metrics
	$(GO) test -race ./internal/baseline ./internal/export
	$(GO) test -race -run 'TestChaos' ./internal/testbed
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzBatchVerify -fuzztime 5s ./internal/crypto
	$(GO) test -run '^$$' -fuzz FuzzPrePrepareRefDecode -fuzztime 5s ./internal/pbft
	$(GO) test -run '^$$' -fuzz FuzzDecodeRun -fuzztime 5s ./internal/blockchain
	$(GO) test -run '^$$' -fuzz FuzzStoreRecovery -fuzztime 5s ./internal/blockchain
	$(GO) test -run '^$$' -bench Verify -benchtime 1x ./internal/crypto/... ./internal/pbft/...
	$(GO) test -run '^$$' -bench Transport -benchtime 1x ./internal/transport
	$(GO) test -run '^$$' -bench 'StoreAppend|OrderingThroughput' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'SealSlot|RequestDigest|HandleFrame|ReceivePrepare' -benchmem -benchtime 1x ./internal/blockchain ./internal/pbft ./internal/node
	cd zcbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-guard runs the tracer overhead guard: ordering throughput with
# lifecycle tracing on must stay within 5% of tracing off.
bench-guard:
	ZUGCHAIN_BENCH_GUARD=1 $(GO) test -run TestTracerOverheadGuard -v .
