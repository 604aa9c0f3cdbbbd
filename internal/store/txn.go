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
// Staged ops live in memory only — deliberately outside the WAL and
// checkpoint machinery. The commit DECISION is durable at the client (its
// transaction log); the provider's only durability obligation starts at
// commit, when each op runs through the normal logged mutation path. A
// provider that restarts between prepare and commit simply forgets the
// staging and answers the eventual commit with ErrNoSuchTx, which the
// client heals by replaying the raw ops through its hint journal.

// PrepareTx validates and stages a transaction's mutations. Each op is an
// encoded Insert/Update/Delete request, applied in order at commit.
// Validation here is what lets an ack promise a later commit will not be
// rejected outright: the tables must exist, every row must match its
// table's spec, and inserted row ids must not collide with live rows —
// checked by simulating the ops in order, so a batch that deletes id X and
// re-inserts it stages cleanly while an insert colliding with a row the
// batch does not delete is rejected here, where the client can still
// abort, instead of at commit, when the decision is already durable.
// (Update/delete row-existence is NOT checked — those may target rows a
// preceding op of the same transaction creates.) Re-preparing an id
// replaces the staged batch, so a retransmitted prepare is idempotent.
func (s *Store) PrepareTx(id uint64, rawOps [][]byte) error {
	ops := make([]proto.Message, 0, len(rawOps))
	for _, raw := range rawOps {
		msg, err := proto.Decode(raw)
		if err != nil {
			return fmt.Errorf("%w: undecodable tx op: %v", ErrBadRequest, err)
		}
		ops = append(ops, msg)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Per-table ids inserted/deleted by earlier ops of this batch.
	type txSim struct{ added, gone map[uint64]bool }
	sims := make(map[string]*txSim)
	sim := func(table string) *txSim {
		sm, ok := sims[table]
		if !ok {
			sm = &txSim{added: make(map[uint64]bool), gone: make(map[uint64]bool)}
			sims[table] = sm
		}
		return sm
	}
	for _, msg := range ops {
		switch m := msg.(type) {
		case *proto.InsertRequest:
			t, err := s.table(m.Table)
			if err != nil {
				return err
			}
			sm := sim(m.Table)
			for _, row := range m.Rows {
				if err := t.validateRow(row); err != nil {
					return err
				}
				if sm.added[row.ID] {
					return fmt.Errorf("%w: %d (within transaction)", ErrDuplicateRow, row.ID)
				}
				if !sm.gone[row.ID] {
					if _, _, live, err := t.heap.get(row.ID); err != nil {
						return err
					} else if live {
						return fmt.Errorf("%w: %d", ErrDuplicateRow, row.ID)
					}
				}
				sm.added[row.ID] = true
				delete(sm.gone, row.ID)
			}
		case *proto.UpdateRequest:
			if err := s.validateTxRows(m.Table, m.Rows); err != nil {
				return err
			}
		case *proto.DeleteRequest:
			if _, err := s.table(m.Table); err != nil {
				return err
			}
			sm := sim(m.Table)
			for _, rid := range m.RowIDs {
				sm.gone[rid] = true
				delete(sm.added, rid)
			}
		default:
			return fmt.Errorf("%w: %T is not a transactional op", ErrBadRequest, msg)
		}
	}
	s.txMu.Lock()
	if s.staged == nil {
		s.staged = make(map[uint64][]proto.Message)
	}
	s.staged[id] = ops
	s.txMu.Unlock()
	return nil
}

func (s *Store) validateTxRows(table string, rows []proto.Row) error {
	t, err := s.table(table)
	if err != nil {
		return err
	}
	for _, row := range rows {
		if err := t.validateRow(row); err != nil {
			return err
		}
	}
	return nil
}

// CommitTx applies a staged transaction in op order, each op through the
// normal logged mutation path, and releases the staging. An unknown id
// returns ErrNoSuchTx. A mid-apply failure leaves the staging in place (the
// client may retry or fall back to hint replay of the remaining ops).
func (s *Store) CommitTx(id uint64) error {
	s.txMu.Lock()
	ops, ok := s.staged[id]
	s.txMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchTx, id)
	}
	for _, msg := range ops {
		var err error
		switch m := msg.(type) {
		case *proto.InsertRequest:
			err = s.Insert(m.Table, m.Rows)
		case *proto.UpdateRequest:
			err = s.Update(m.Table, m.Rows)
		case *proto.DeleteRequest:
			_, err = s.Delete(m.Table, m.RowIDs)
		}
		if err != nil {
			return err
		}
	}
	s.txMu.Lock()
	delete(s.staged, id)
	s.txMu.Unlock()
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
