package client

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"sssdb/internal/proto"
	"sssdb/internal/wal"
)

// hintJournal is the hinted-handoff queue for one provider: mutations the
// fleet committed while the provider was unreachable, kept in statement
// order as encoded protocol messages so the repair loop can replay them
// verbatim. While any record is queued the provider is "lagging": reads may
// still use it as a last resort, but only below the journal's per-table lag
// floor (the smallest row id any queued record touches), so reconstruction
// never mixes a provider that missed a write with one that saw it.
//
// With Options.HintDir set the journal is backed by a WAL file (the same
// CRC framing providers use for durability), so a client restart resumes
// the repair obligation instead of silently forgetting it.
type hintJournal struct {
	// The client's downMu guards all fields below; hint state is failover
	// state and shares its leaf lock (never acquire e.mu under it).
	lagging bool
	// records holds encoded per-provider request messages, FIFO. The head
	// is only removed after the provider acknowledged it.
	records [][]byte
	// floors maps table name -> smallest row id any queued record touches.
	// Scans that include this provider mask ids at or above the floor.
	floors map[string]uint64
	// replayed counts records already acknowledged during the current
	// replay pass; the WAL is truncated only when the journal fully drains.
	replayed int
	// needsReseed is set when replay hit an error that leaves the provider's
	// table state unknown; readmission then re-seeds instead of trusting it.
	needsReseed bool
	// log persists records when HintDir is configured (nil otherwise).
	log *wal.Log
}

// hintPath names provider i's journal file under dir.
func hintPath(dir string, provider int) string {
	return filepath.Join(dir, fmt.Sprintf("hints-%d.wal", provider))
}

// openHintJournals builds one journal per provider, reloading queued
// records from HintDir when configured. A reloaded non-empty journal marks
// its provider lagging immediately: the obligation to repair it survived
// the restart even though the down/health state did not.
func openHintJournals(n int, dir string) ([]*hintJournal, error) {
	hints := make([]*hintJournal, n)
	for i := range hints {
		h := &hintJournal{floors: make(map[string]uint64)}
		hints[i] = h
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("client: hint dir: %w", err)
		}
		path := hintPath(dir, i)
		if err := wal.Replay(path, func(rec []byte) error {
			msg, err := proto.Decode(rec)
			if err != nil {
				return fmt.Errorf("client: decoding hint record: %w", err)
			}
			h.records = append(h.records, append([]byte(nil), rec...))
			h.noteFloor(msg)
			return nil
		}); err != nil {
			return nil, err
		}
		log, err := wal.Open(path)
		if err != nil {
			return nil, err
		}
		h.log = log
		if len(h.records) > 0 {
			h.lagging = true
		}
	}
	return hints, nil
}

// noteFloor lowers the lag floor for the table a queued message touches.
// DDL records floor the whole table (id 0): a provider that missed a
// CREATE/DROP has no usable rows for it at all.
func (h *hintJournal) noteFloor(msg proto.Message) {
	var table string
	low := uint64(math.MaxUint64)
	switch m := msg.(type) {
	case *proto.InsertRequest:
		table = m.Table
		for _, r := range m.Rows {
			if r.ID < low {
				low = r.ID
			}
		}
	case *proto.UpdateRequest:
		table = m.Table
		for _, r := range m.Rows {
			if r.ID < low {
				low = r.ID
			}
		}
	case *proto.DeleteRequest:
		table = m.Table
		for _, id := range m.RowIDs {
			if id < low {
				low = id
			}
		}
	case *proto.CreateTableRequest:
		table = m.Spec.Name
		low = 0
	case *proto.DropTableRequest:
		table = m.Table
		low = 0
	default:
		return
	}
	if cur, ok := h.floors[table]; !ok || low < cur {
		h.floors[table] = low
	}
}

// append queues one encoded message (caller holds downMu via the client
// helpers). Persistence is best-effort durable: the record is fsynced
// before the statement that created it returns.
func (h *hintJournal) append(msg proto.Message) error {
	rec := proto.Encode(msg)
	h.records = append(h.records, rec)
	h.noteFloor(msg)
	h.lagging = true
	if h.log != nil {
		if err := h.log.Append(rec); err != nil {
			return err
		}
		return h.log.Sync()
	}
	return nil
}

// reset clears the journal after a successful readmission.
func (h *hintJournal) reset() error {
	h.records = nil
	h.replayed = 0
	h.floors = make(map[string]uint64)
	h.needsReseed = false
	h.lagging = false
	if h.log != nil {
		return h.log.Reset()
	}
	return nil
}

// --- client-side accessors (lock the journal via downMu) ---

// hintMutation queues msg for provider p and marks it lagging. Returns the
// journal persistence error, if any (the share payload is still queued in
// memory, so repair proceeds even if the disk copy failed).
func (e *engine) hintMutation(p int, msg proto.Message) error {
	e.downMu.Lock()
	defer e.downMu.Unlock()
	return e.hints[p].append(msg)
}

// laggingSet snapshots which providers have queued hints.
func (e *engine) laggingSet() []bool {
	lag := make([]bool, e.opts.N)
	e.downMu.Lock()
	for i, h := range e.hints {
		lag[i] = h.lagging
	}
	e.downMu.Unlock()
	return lag
}

// isLagging reports whether provider p has queued hints.
func (e *engine) isLagging(p int) bool {
	e.downMu.Lock()
	defer e.downMu.Unlock()
	return e.hints[p].lagging
}

// lagFloor returns the row-id bound below which the given providers all
// saw every mutation of table: the minimum lag floor among those that are
// lagging, or MaxUint64 when none is. Scans cap their watermark with it.
func (e *engine) lagFloor(table string, providers []int) uint64 {
	floor := uint64(math.MaxUint64)
	e.downMu.Lock()
	defer e.downMu.Unlock()
	for _, p := range providers {
		h := e.hints[p]
		if !h.lagging {
			continue
		}
		f, ok := h.floors[table]
		if !ok {
			continue
		}
		if f < floor {
			floor = f
		}
	}
	return floor
}

// PendingHints reports how many hinted mutations are queued across all
// providers of all groups, awaiting replay by the repair loops.
func (c *Client) PendingHints() int {
	total := 0
	for _, e := range c.groups {
		e.downMu.Lock()
		for _, h := range e.hints {
			total += len(h.records)
		}
		e.downMu.Unlock()
	}
	return total
}

// LaggingProviders lists providers with queued hints or an unfinished
// repair, in index order. Provider indices are global: group g's provider i
// reports as g*N+i.
func (c *Client) LaggingProviders() []int {
	var out []int
	for g, e := range c.groups {
		for i, lagging := range e.laggingSet() {
			if lagging {
				out = append(out, g*c.opts.N+i)
			}
		}
	}
	return out
}

// Converged reports that no provider is lagging: every provider holds every
// acknowledged write of its group, so all K-subsets reconstruct identical
// results.
func (c *Client) Converged() bool {
	return len(c.LaggingProviders()) == 0
}

// closeHints releases journal files.
func (e *engine) closeHints() error {
	e.downMu.Lock()
	defer e.downMu.Unlock()
	var firstErr error
	for _, h := range e.hints {
		if h.log != nil {
			if err := h.log.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			h.log = nil
		}
	}
	return firstErr
}
