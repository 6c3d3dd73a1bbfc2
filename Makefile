# GRIPhoN — build, test and reproduce the paper's results.

GO ?= go

.PHONY: all build test vet lint cover bench profile reproduce examples daemon trace latency clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static invariants (DESIGN.md §9): wallclock, txnrollback, emslayer,
# metricname, suppress, determinism, journaled, leakpath, loopblock, spanpair,
# run over the whole module by TestRepoIsClean, and the four dead-state checks
# (unreachable and test-only functions, write-only fields, unturned knobs) —
# `make test` runs them too.
lint:
	$(GO) test -count=1 ./internal/analysis/...

cover:
	$(GO) test -cover ./...

# One testing.B benchmark per paper table/figure (plus microbenchmarks).
bench:
	$(GO) test -bench=. -benchmem ./...

# Profile the heaviest experiment; inspect with `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/griphon-bench -exp scale -cpuprofile cpu.prof -memprofile mem.prof

# Regenerate every table and figure as formatted text (EXPERIMENTS.md).
reproduce:
	$(GO) run ./cmd/griphon-bench

# Run all example programs.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/replication
	$(GO) run ./examples/restoration
	$(GO) run ./examples/maintenance
	$(GO) run ./examples/grooming
	$(GO) run ./examples/adaptive

# The customer-GUI backend on :8580 (drive it with griphonctl).
daemon:
	$(GO) run ./cmd/griphond

# Regenerate the setup-latency before/after distributions (BENCH_PR6.json):
# serial choreography vs graph + path cache + pre-arm, per service class.
# TestLatencyWithinCommittedBaseline holds later runs to the committed file.
latency:
	$(GO) run ./cmd/griphon-bench -latency 120

# Record a setup -> cut -> restore demo trace; load trace.json in
# ui.perfetto.dev or chrome://tracing to see the EMS step ladder.
trace:
	$(GO) run ./cmd/griphon-bench -trace trace.json

clean:
	$(GO) clean ./...
