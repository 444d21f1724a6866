# Convenience targets for the thriftylp repository.

GO ?= go

.PHONY: all build test lint check race cover bench verify experiments clean

all: check

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Run the thriftyvet analyzer suite — hotpath, benignrace, padded,
# errfreeze, metricfreeze, cancelpoint, plus the CFG/facts-based reflease,
# mmapsafe, goroleak and dirhygiene — over the whole module and the nested
# benchmark/ module through the go vet driver; see DESIGN.md §12 for the
# annotation grammar and §17 for the dataflow engine.
lint:
	$(GO) build -o bin/thriftyvet ./cmd/thriftyvet
	$(GO) vet -vettool=$(CURDIR)/bin/thriftyvet ./...
	$(GO) -C benchmark vet -vettool=$(CURDIR)/bin/thriftyvet ./...

check: build test lint

race:
	GOMAXPROCS=4 $(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One Benchmark family per paper table/figure; see bench_test.go.
bench:
	$(GO) test -bench=. -benchmem ./...

# Cross-validate every algorithm against the sequential oracle.
verify:
	$(GO) run ./cmd/ccverify

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/ccbench -exp all -scale medium

clean:
	$(GO) clean ./...
	rm -rf bin datasets
