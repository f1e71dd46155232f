GO ?= go

# Concurrency-heavy packages CI runs under the race detector.
RACE_PKGS = ./internal/parallel/... ./internal/tournament/... ./internal/cost/... ./internal/obs/... ./internal/dispatch/... ./internal/chaos/... ./internal/checkpoint/... ./internal/degrade/... ./internal/service/... ./internal/faults/... ./internal/trust/...

# Total-coverage floor for the cover target, pinned a few points under the
# measured total so genuine regressions fail without flaking on noise.
COVER_FLOOR = 76.0

.PHONY: build test race bench vet lint ci bench-smoke bench-test golden chaos-smoke soak-smoke server-smoke store-torture loadtest-smoke cover loc all clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Same package lists as the CI race steps: the memo, breaker and trust
# packages once at GOMAXPROCS=1 (every goroutine interleaved on a single P,
# as on a 1-core host), then every concurrency-heavy package at 4 (real
# parallelism), then the root package's sessions that drive one memo from
# ParallelBatch and hedged-pool goroutines while checkpoints read it.
race:
	GOMAXPROCS=1 $(GO) test -race ./internal/tournament/... ./internal/dispatch/... ./internal/trust/...
	GOMAXPROCS=4 $(GO) test -race $(RACE_PKGS)
	GOMAXPROCS=4 $(GO) test -race -run 'TestIncrementalTablesUnderConcurrency' .

# Mirror of .github/workflows/ci.yml: the test job's steps plus the
# benchmark-smoke job. Green here means green there (modulo Go version).
ci: vet lint build test race cover bench-smoke bench-test golden chaos-smoke soak-smoke server-smoke store-torture loadtest-smoke

# The parallel engine once, one Session.Run job of each kind lib-mixed runs
# (max, top-5, pool at n=2000, un=8) with its bytes and allocations, the
# dense memo's hit, miss and fill at n=2000, and the filter with its memo on
# and off.
bench-smoke:
	$(GO) test -run='^$$' -bench=BenchmarkFig3Parallel -benchtime=1x ./internal/experiment
	$(GO) test -run='^$$' -bench=BenchmarkSessionRun -benchtime=1x .
	$(GO) test -run='^$$' -bench=BenchmarkSessionCheckpoint -benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkMemo$$' -benchtime=1x ./internal/tournament
	$(GO) test -run='^$$' -bench=BenchmarkFilter -benchtime=1x ./internal/core

# crowdbench's own tests: every workload once, end to end, with its pinned
# digests. bench/ is a module of its own, so `go test ./...` at the root
# never reaches it; its checkpoint.save_final_ms metric loads the service's
# snapshots back, so a snapshot codec break fails here.
bench-test:
	cd bench && $(GO) test ./...

# The paper-scale tables and figures: a fresh `benchrun all` must reproduce
# the committed snapshot byte for byte (about a minute). After an intended
# change, regenerate with `go run ./cmd/benchrun all > results/benchrun-all.txt`.
golden:
	$(GO) run ./cmd/benchrun all >/tmp/benchrun-all.txt
	diff results/benchrun-all.txt /tmp/benchrun-all.txt

# Crash-and-resume bit-identical checks plus a poisoned-pool run: the same
# steps as the CI chaos-smoke job. The first crash lands before the first
# interval snapshot (resume from the start base); the second, with a
# snapshot every 64 paid comparisons, leaves a base and its segments.
chaos-smoke:
	rm -f /tmp/chaos-smoke.ck /tmp/chaos-smoke.ck-* /tmp/chaos-smoke-seg.ck /tmp/chaos-smoke-seg.ck-*
	$(GO) run ./cmd/maxcrowd -n 400 -seed 7 -checkpoint /tmp/chaos-smoke-clean.ck >/tmp/chaos-smoke-clean.out
	$(GO) run ./cmd/maxcrowd -n 400 -seed 7 -checkpoint /tmp/chaos-smoke.ck -chaos crash:300 >/dev/null 2>&1; \
		test $$? -ne 0 || { echo "chaos-smoke: crash run exited zero"; exit 1; }
	$(GO) run ./cmd/maxcrowd -n 400 -seed 7 -checkpoint /tmp/chaos-smoke.ck -resume /tmp/chaos-smoke.ck >/tmp/chaos-smoke-resumed.out
	diff /tmp/chaos-smoke-clean.out /tmp/chaos-smoke-resumed.out
	$(GO) run ./cmd/maxcrowd -n 400 -seed 7 -checkpoint-every 64 -checkpoint /tmp/chaos-smoke-seg.ck -chaos crash:1000 >/dev/null 2>&1; \
		test $$? -ne 0 || { echo "chaos-smoke: crash run exited zero"; exit 1; }
	test -e /tmp/chaos-smoke-seg.ck-1 || { echo "chaos-smoke: crash left no segment"; exit 1; }
	$(GO) run ./cmd/maxcrowd -n 400 -seed 7 -checkpoint-every 64 -checkpoint /tmp/chaos-smoke-seg.ck -resume /tmp/chaos-smoke-seg.ck >/tmp/chaos-smoke-seg-resumed.out
	diff /tmp/chaos-smoke-clean.out /tmp/chaos-smoke-seg-resumed.out
	$(GO) run ./cmd/maxcrowd -n 400 -seed 7 -chaos spammer:0.1 >/dev/null
	$(GO) test -run 'TestAdversarySweepRetentionWithHealth' ./internal/experiment
	$(GO) test -run '^$$' -fuzz FuzzCheckpointRoundTrip -fuzztime 10s ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzSegmentReplay -fuzztime 10s ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzSealedSegment -fuzztime 10s ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzSealedBase -fuzztime 10s ./internal/checkpoint

# Graceful-degradation soak: the same steps as the CI soak-smoke job. A run
# whose expert backend dies mid-phase-2 must complete on the naive-majority
# rung and say so, and the soak harness must verify every schedule's
# label-honesty and crash/resume same-rung invariants.
soak-smoke:
	$(GO) run ./cmd/maxcrowd -n 400 -seed 7 -chaos expert-outage:1.0@600+ >/tmp/soak-smoke.out
	grep -q "guarantee: δn (rung naive-majority)" /tmp/soak-smoke.out
	$(GO) run ./cmd/soak -trials 8 -n 300 -seed 1
	$(GO) run ./cmd/soak -trials 3 -n 300 -seed 1 -modes topk,score -plans "none;expert-outage:1.0@800+"

# Service lifecycle end to end: boot maxcrowdd, complete a batch over HTTP
# with honest labels, SIGTERM with work in flight (graceful drain, exit 0),
# restart and finish the interrupted jobs. Same steps as the CI job.
server-smoke:
	./scripts/server-smoke.sh

# Storage-fault torture: 25 kill -9 cycles under injected disk faults (torn
# writes, ENOSPC, failed renames/fsyncs), a poisoned-store boot, then a final
# audit proving zero lost jobs and to-the-cent budget reconciliation. Same
# steps as the CI job.
store-torture:
	./scripts/store-torture.sh

# Loadtest the service in-process: a plain max stream and a mixed
# max/topk/score stream. loadgen exits non-zero unless every job completes
# with an honest label, the submitted mode and the right rank count, so its
# exit status is the gate. Same steps as the CI job.
loadtest-smoke:
	$(GO) run ./cmd/loadgen -jobs 200 -n 60 -un 4 -concurrency 32
	$(GO) run ./cmd/loadgen -jobs 60 -n 60 -un 4 -concurrency 16 -mix max,topk,score

# Total coverage with a pinned floor; coverage.out is the CI artifact.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { \
		if (t+0 < f+0) { printf "cover: total %.1f%% is below the %.1f%% floor\n", t, f; exit 1 } \
		printf "cover: total %.1f%% (floor %.1f%%)\n", t, f }'

# Reduced per-figure benchmarks plus the parallel-engine benchmark.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .
	$(GO) test -bench=BenchmarkFig3Parallel -run=^$$ ./internal/experiment

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Both tools are optional: when they are not on
# PATH the target prints a note and succeeds, so `make ci` works on a bare
# toolchain (CI installs them in its own lint job).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping"; \
	fi

# Go line counts outside bench/ (a module of its own) and hidden
# directories: non-test lines, then test lines.
GO_FILES = find . \( -path ./bench -o -path './.*' \) -prune -o -name '*.go'
loc:
	@printf 'non-test Go lines: %s\n' $$($(GO_FILES) ! -name '*_test.go' -print | xargs cat | wc -l)
	@printf 'test Go lines:     %s\n' $$($(GO_FILES) -name '*_test.go' -print | xargs cat | wc -l)

clean:
	$(GO) clean ./...
