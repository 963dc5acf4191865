# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test check race short sim bench benchall experiments fuzz fmt vet clean

all: build vet test

build:
	$(GO) build ./...

# Default test target: full suite, then a short-mode pass under the race
# detector so concurrency regressions surface in everyday runs.
test:
	$(GO) test ./...
	$(GO) test -short -race ./...

# The pre-merge gate: static analysis, the full suite under -race
# (which includes the differential model checker), a focused
# overload/shed/drain soak under -race (deterministic virtual time, so
# it is quick), the twd end-to-end durability test (schedule, SIGKILL
# mid-traffic, restart, verify every acked timer fires or survives),
# 30-second smokes of the batch-admission, model-checker (mixed-ops and
# reset-storm), WAL-replay, and replica-stream fuzz targets,
# a fleet-simulation smoke (`make sim`: 100k virtual connections, the
# conservation ledger and firing-lag SLO asserted at exit), and a
# one-iteration benchmark smoke so `make bench` can never rot
# unnoticed (it compiles and enters every benchmark without measuring
# anything).
check:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run Overload -race -short ./timer/ ./internal/schemetest/
	$(GO) test -run=TestE2ECrashRecovery -count=1 -v ./cmd/twd/
	$(GO) test -race -run=TestE2EFailover -count=1 -v ./cmd/twd/
	$(GO) test -run=xxx -fuzz=FuzzBatch -fuzztime=30s ./timer/
	$(GO) test -run=xxx -fuzz=FuzzModelMixedOps -fuzztime=30s ./internal/schemetest/
	$(GO) test -run=xxx -fuzz=FuzzModelResetStorm -fuzztime=30s ./internal/schemetest/
	$(GO) test -run=xxx -fuzz=FuzzWALReplay -fuzztime=30s ./internal/wal/
	$(GO) test -run=xxx -fuzz=FuzzReplicaStream -fuzztime=30s ./internal/replica/
	$(MAKE) sim
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Fleet-simulation smoke: 100k simulated connections, 4 virtual hours,
# compressed into a few wall seconds. twfleet exits non-zero unless the
# started == delivered+shed+stopped+outstanding+abandoned ledger closes
# exactly and p99.9 firing lag stays within the SLO.
sim:
	$(GO) run ./cmd/twfleet -conns 100000 -shards 2 -hours 4

short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Hot-path benchmarks with allocation counts, summarized as JSON at the
# repo root (BENCH_10.json) and gated against the committed BENCH_9.json:
# the run fails if AfterFunc+Stop slows down more than 10% or the
# allocation-free hot path starts allocating. BENCH_10 adds the
# reset-heavy race (BenchmarkResetHeavy): wheels vs the grouped sorting
# queue as the reset ratio sweeps 50/80/95%. Set
# BENCH_BASELINE to a saved `go test -bench` output file to embed
# different before/after numbers; BENCH_COUNT repeats each benchmark.
# `make benchall` is the old kitchen-sink run.
BENCH_BASELINE ?=
BENCH_COUNT ?= 1
bench:
	$(GO) run ./cmd/benchjson -count=$(BENCH_COUNT) \
		$(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE)) \
		-compare BENCH_9.json -o BENCH_10.json

benchall:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every figure/table from the paper (e1..e16).
experiments:
	$(GO) run ./cmd/twbench | tee results_twbench.txt

# Short fuzz bursts over the conformance and batch-admission targets.
fuzz:
	$(GO) test -run=xxx -fuzz=FuzzScheme6Conformance -fuzztime=30s ./internal/schemetest/
	$(GO) test -run=xxx -fuzz=FuzzScheme7Conformance -fuzztime=30s ./internal/schemetest/
	$(GO) test -run=xxx -fuzz=FuzzHybridConformance -fuzztime=30s ./internal/schemetest/
	$(GO) test -run=xxx -fuzz=FuzzModelMixedOps -fuzztime=30s ./internal/schemetest/
	$(GO) test -run=xxx -fuzz=FuzzModelResetStorm -fuzztime=30s ./internal/schemetest/
	$(GO) test -run=xxx -fuzz=FuzzBatch -fuzztime=30s ./timer/

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -rf internal/schemetest/testdata
