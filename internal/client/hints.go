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
	// The provider record's mutex guards every field.
	lagging bool
	// records holds encoded per-provider request messages, FIFO. The head
	// is only removed after the provider acknowledged it.
	records [][]byte
	// floors maps table name -> smallest row id any queued record touches.
	// Scans that include this provider mask ids at or above the floor.
	floors map[string]uint64
	// needsReseed is set when replay hit an error that leaves the provider's
	// table state unknown; readmission then re-seeds instead of trusting it.
	needsReseed bool
	// log persists records when HintDir is configured (nil otherwise).
	log *wal.Log
}

// open readies the journal of provider i, reloading queued records from dir
// when HintDir is configured. A reloaded non-empty journal is lagging at
// once: the obligation to repair its provider survived the restart even
// though the ledger did not.
func (h *hintJournal) open(dir string, provider int) error {
	h.floors = make(map[string]uint64)
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("client: hint dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("hints-%d.wal", provider))
	var err error
	h.log, err = wal.Open(path, func(rec []byte) error {
		msg, err := proto.Decode(rec)
		if err != nil {
			return fmt.Errorf("client: decoding hint record: %w", err)
		}
		h.records = append(h.records, rec)
		h.noteFloor(msg)
		return nil
	})
	h.lagging = len(h.records) > 0
	return err
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

// append queues one encoded message and marks the provider lagging.
// Persistence is best-effort durable: the record is fsynced before the
// statement that created it returns.
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
	h.floors = make(map[string]uint64)
	h.needsReseed = false
	h.lagging = false
	if h.log != nil {
		return h.log.Reset()
	}
	return nil
}

// PendingHints reports how many hinted mutations are queued across all
// providers of all groups, awaiting replay by the repair loops.
func (c *Client) PendingHints() int {
	total := 0
	c.eachProvider(func(_ int, p *provider) { total += len(p.hints.records) })
	return total
}

// LaggingProviders lists providers with queued hints or an unfinished
// repair, in index order. Provider indices are global: group g's provider i
// reports as g*N+i.
func (c *Client) LaggingProviders() []int {
	var out []int
	c.eachProvider(func(i int, p *provider) {
		if p.hints.lagging {
			out = append(out, i)
		}
	})
	return out
}

// Converged reports that no provider is lagging: every provider holds every
// acknowledged write of its group, so all K-subsets reconstruct identical
// results.
func (c *Client) Converged() bool {
	return len(c.LaggingProviders()) == 0
}
