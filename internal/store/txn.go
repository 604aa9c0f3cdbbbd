package store

import (
	"errors"
	"fmt"

	"sssdb/internal/proto"
)

// ErrNoSuchTx rejects a commit for a transaction id with no staged state.
var ErrNoSuchTx = errors.New("store: no such transaction")

// Transaction staging (provider side of the client-coordinated 2PC).
//
// Staged batches live in memory only — deliberately outside the WAL and
// checkpoint machinery. The commit DECISION is durable at the client (its
// transaction log); the provider's only durability obligation starts at
// commit, when the batch goes through the mutation path as one record. A
// provider that restarts between prepare and commit simply forgets the
// staging and answers the eventual commit with ErrNoSuchTx, which the
// client heals by replaying the raw ops through its hint journal.

// PrepareTx validates and stages a transaction's mutations. Each op is an
// encoded Insert/Update/Delete request, applied in order at commit.
// Validation here — the mutation path's own validate, against the tables as
// they are now — is what lets an ack promise a later commit will not be
// rejected outright: a colliding insert or an update of a row that is not
// there fails here, where the client can still abort, instead of at commit,
// when the decision is already durable. Re-preparing an id replaces the
// staged batch, so a retransmitted prepare is idempotent.
func (s *Store) PrepareTx(id uint64, rawOps [][]byte) error {
	tx := &proto.TxPrepareRequest{TxID: id, Ops: rawOps}
	s.mu.RLock()
	_, err := s.validate(tx)
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	s.txMu.Lock()
	if s.staged == nil {
		s.staged = make(map[uint64]*proto.TxPrepareRequest)
	}
	s.staged[id] = tx
	s.txMu.Unlock()
	return nil
}

// CommitTx runs a staged transaction through the mutation path as one batch
// — validated again, since the tables may have moved since prepare, then one
// WAL record, one lock hold, one fsync: readers and a crash see all of it or
// none — and releases the staging. An unknown id returns ErrNoSuchTx. A batch
// that no longer validates applies nothing and stays staged (the client may
// retry or abort).
func (s *Store) CommitTx(id uint64) error {
	s.txMu.Lock()
	tx, ok := s.staged[id]
	s.txMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchTx, id)
	}
	if _, err := s.mutate(tx); err != nil {
		return err
	}
	s.AbortTx(id)
	return nil
}

// AbortTx discards a staged transaction; unknown ids are a no-op (presumed
// abort: the client may over-send aborts for transactions never prepared
// here).
func (s *Store) AbortTx(id uint64) {
	s.txMu.Lock()
	delete(s.staged, id)
	s.txMu.Unlock()
}

// StagedTxs reports how many transactions are staged (tests and tooling).
func (s *Store) StagedTxs() int {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	return len(s.staged)
}
