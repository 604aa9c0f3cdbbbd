# sssdb build targets. Everything is pure Go stdlib; no tool dependencies
# beyond the Go toolchain.

GO ?= go

.PHONY: all build vet test race race-txn race-hedge fuzz-smoke loc bench bench-check experiments experiments-full fmt clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race pass over the transaction paths: the client-side 2PC and
# snapshot machinery plus the randomized concurrent-transaction differential
# (interleaved workers vs a serial oracle, plain and sharded), the one write
# path autocommit and Commit share (byte-identical providers, Audit beside a
# half-landed INSERT, Close flushing lazy UPDATEs), then the provider side:
# the store's one mutation path and the server arm onto it, and the share
# indexes it maintains (an UPDATE moving only its changed cells' entries, an
# entry's heap cost, a cursor resuming across writes, proofs rebuilt from
# rows), and the verified scan served from that cursor (its proof on the last
# batch, refused across a write, stopped by its client's cancel and bounded
# by one batch of heap).
race-txn:
	$(GO) test -race -count=2 -run 'TestTx|TestWatermark|TestSharded|TestWritePathsAgree|TestAuditWaitsOutHalfLandedInsert|TestCloseFlushesLazyUpdates' ./internal/client
	$(GO) test -race -count=1 -run 'TestTx' .
	$(GO) test -race -count=2 -run 'TestPrepareTx|TestCommitTx|TestMutation' ./internal/store ./internal/server
	$(GO) test -race -count=1 -run 'TestUpdateLeavesUnchangedIndexEntries|TestIndexEntryHeapBytes|TestCursorResumesAcrossShiftedSlab|TestProofAtEdges|TestProvedCursor' ./internal/store
	$(GO) test -race -count=1 -run 'TestVerifiedScan' ./internal/server

# Focused race pass over the tail-tolerance paths: hedged slots of
# whole-response reads and streaming scans, the one spare rule, stall
# demotion, the provider record's judge and ordering, end-to-end deadlines,
# the flapping provider's repair loop, and the deadline-aware transport,
# in-process conns included (a deadline preempts a handler still running),
# whose one frame writer stops a stream when its client is gone, bounds what
# a provider produces for a stalled reader, and strands no frame, and whose
# cancel frame stops every abandoned call: unrun if it is still queued, at
# the next batch if it streams.
race-hedge:
	$(GO) test -race -count=1 -run 'TestHedge|TestStall|TestNoHedges|TestHealth|TestCircuit|TestDynamic|TestReadDeadline|TestRepairFlapping|TestRemoteErrorDoesNotDemote|TestEveryOutcomeReachesLedger|TestProviderOrder' ./internal/client
	$(GO) test -race -count=2 -run 'TestFaulty|TestWaitBackoff|TestCallDeadline|TestLocalConn|TestStreamStopsWhenClientGone|TestStalledReaderBoundsServer|TestFrameWriter|TestCancelWhileQueued|TestAbandonedCall' ./internal/transport

# Ten seconds on each fuzz target, from the corpora checked in under
# testdata/fuzz: the share-row block codec, the message decoder (one message of
# every kind), the page decoder, a WAL record through the store's mutation
# path, the store manifest Open reads from disk, a provider's range proof, the
# index B+-tree against a sorted-set oracle, the transport's frame and
# handshake readers, the transport's demux of chunk and flag sequences, and
# the SQL lexer and parser, a client's catalog import, and a WAL's segment
# files opened from a checkpoint. -fuzz takes one target and one package per
# run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRowBlock$$' -fuzztime=10s ./internal/proto
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime=10s ./internal/proto
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePage$$' -fuzztime=10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzApplyRecord$$' -fuzztime=10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeManifest$$' -fuzztime=10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalRangeProof$$' -fuzztime=10s ./internal/merkle
	$(GO) test -run '^$$' -fuzz '^FuzzTree$$' -fuzztime=10s ./internal/btree
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime=10s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzDemux$$' -fuzztime=10s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime=10s ./internal/sql
	$(GO) test -run '^$$' -fuzz '^FuzzImportCatalog$$' -fuzztime=10s ./internal/client
	$(GO) test -run '^$$' -fuzz '^FuzzOpenSegments$$' -fuzztime=10s ./internal/wal

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
