# sssdb build targets. Everything is pure Go stdlib; no tool dependencies
# beyond the Go toolchain.

GO ?= go

.PHONY: all build vet test race fuzz-smoke loc bench bench-check experiments experiments-full fmt clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Every test under the race detector, twice, as CI runs it. A concurrent
# test is covered as soon as it exists; no list of names to keep.
race:
	$(GO) test -race -count=2 ./...

# Ten seconds on every fuzz target in the module, from the corpora checked in
# under testdata/fuzz. -fuzz takes one target and one package per run, so each
# package lists its own targets.
fuzz-smoke:
	@pkgs=$$($(GO) list ./...) || exit 1; \
	for p in $$pkgs; do \
		targets=$$($(GO) test -list '^Fuzz' $$p) || exit 1; \
		for f in $$(echo "$$targets" | grep '^Fuzz'); do \
			echo "fuzz $$f $$p"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime=10s $$p || exit 1; \
		done; \
	done

# The figures ROADMAP.md and CHANGES.md quote for aim 2: non-test lines of
# the client and the transport (item 6), the store, its index tree and the
# server over them, the codec and the order-preserving scheme (item 1), the
# experiment harness beside the repository benchmark, and the WAL.
loc:
	@for d in internal/client internal/transport internal/store internal/btree internal/server internal/proto internal/opp internal/bench internal/wal; do \
		printf '%s %s\n' $$d $$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l); \
	done

bench:
	$(GO) test -bench=. -benchmem ./...

# The repository benchmark is its own module (benchmark/go.mod), so the
# targets above do not reach it: vet and test it here.
bench-check:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# Regenerate the paper's experiment tables (quick sizes).
experiments:
	$(GO) run ./cmd/ssbench

# Full-size experiment run (minutes).
experiments-full:
	$(GO) run ./cmd/ssbench -full

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
