# Development targets. `make check` is the full pre-merge gate.

GO ?= go

.PHONY: all build vet test race bench alloc-check check

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass over every microbenchmark — compile + smoke, not a measurement.
# Performance is measured by `bash perfbench/run.sh` (see perfbench/README.md);
# the paper tables by `go run ./cmd/s4dbench`. For a CPU profile of one
# experiment: go test -run '^$' -bench Fig6 -benchtime=1x -cpuprofile cpu.prof .
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Just the allocation-regression tests: pins the performance-mode serve
# and identify paths, the metadata store's durable commit path, the
# striped-table dirty/pending counters, the packed-extent lookup and
# resident-budget spill bookkeeping, every cache policy's
# touch/eviction paths, the latency histogram's record path, and the
# network server's decode→dispatch→encode request path, at 0 allocs/op.
alloc-check:
	$(GO) test -run 'ZeroAllocs' ./internal/pfs/ ./internal/core/ ./internal/iotrace/ ./internal/kvstore/ ./internal/dmt/ ./internal/cdt/ ./internal/cachespace/ ./internal/netserve/ ./internal/bench/ -v

check: vet build race bench
