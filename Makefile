# Convenience targets for the thriftylp repository.

GO ?= go
GOFMT ?= gofmt

.PHONY: all build test fmtcheck lint check race cover bench verify experiments clean

all: check

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Fail if gofmt would rewrite any Go file. testdata/ is excluded: analyzer
# fixtures such as dirhygiene's "dirty" package are unformatted on purpose.
fmtcheck:
	@out=$$(find . -path ./.bench_build -prune -o -name testdata -prune -o -name '*.go' -print | xargs $(GOFMT) -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Check formatting, then run the thriftyvet analyzer suite — hotpath,
# benignrace, padded, errfreeze, metricfreeze, cancelpoint, plus the
# CFG/facts-based reflease, mmapsafe, goroleak and dirhygiene — over the
# whole module and the nested benchmark/ module through the go vet driver;
# see DESIGN.md §12 for the annotation grammar and §17 for the dataflow
# engine.
lint: fmtcheck
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
