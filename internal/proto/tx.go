package proto

// Transaction messages: client-coordinated two-phase commit. The data
// source is the only coordinator (the paper's trust model — providers never
// talk to each other), so the protocol is deliberately thin: prepare ships
// the transaction's buffered per-provider mutations for staging, commit
// applies the staged batch atomically under the store lock, abort discards
// it. Durability of the decision lives in the CLIENT's transaction log, not
// at providers: a provider that loses its staged ops between prepare and
// commit answers commit with CodeNoSuchTx and the client falls back to
// hinted-handoff replay of the raw ops.

// TxPrepareRequest stages a transaction's mutations at one provider. Ops
// are encoded Insert/Update/Delete request bodies (Encode output), applied
// in order at commit. Re-preparing an id replaces the staged ops
// (idempotent retransmit).
type TxPrepareRequest struct {
	TxID uint64
	Ops  [][]byte
}

func (*TxPrepareRequest) Kind() Kind { return KTxPrepare }
func (m *TxPrepareRequest) fields(c *codec) {
	c.u64(&m.TxID)
	c.byteSlices(&m.Ops)
}

// TxCommitRequest applies a staged transaction. Unknown ids answer
// CodeNoSuchTx so the client can distinguish "never staged / lost" from a
// hard rejection.
type TxCommitRequest struct {
	TxID uint64
}

func (*TxCommitRequest) Kind() Kind        { return KTxCommit }
func (m *TxCommitRequest) fields(c *codec) { c.u64(&m.TxID) }

// TxAbortRequest discards a staged transaction; unknown ids succeed
// (presumed abort makes aborts safe to over-send).
type TxAbortRequest struct {
	TxID uint64
}

func (*TxAbortRequest) Kind() Kind        { return KTxAbort }
func (m *TxAbortRequest) fields(c *codec) { c.u64(&m.TxID) }

// --- Client transaction-log records ---
//
// The client's tx log reuses the proto encoding (like the hint journals):
// each WAL record is one encoded message. TxOpsRecord captures one
// provider's share of the transaction before prepare is sent; TxMarkRecord
// captures state transitions. Recovery replays the log in order: a tx whose
// commit mark made it to the log is re-driven to completion, anything else
// is presumed aborted.

// Transaction states recorded in TxMarkRecord. The tx log persists these
// numbers, so each is spelled out; 3, an abort mark, was never written
// (an aborted transaction is one with no commit mark).
const (
	TxStateIntent    uint8 = 1
	TxStateCommitted uint8 = 2
	TxStateResolved  uint8 = 4
)

// TxOpsRecord is one provider's encoded op batch for a transaction.
type TxOpsRecord struct {
	TxID     uint64
	Provider uint32
	Ops      [][]byte
}

func (*TxOpsRecord) Kind() Kind { return KTxOps }
func (m *TxOpsRecord) fields(c *codec) {
	c.u64(&m.TxID)
	provider := uint64(m.Provider)
	if c.uvarint(&provider); c.reading {
		m.Provider = uint32(provider)
	}
	c.byteSlices(&m.Ops)
}

// TxMarkRecord is a transaction state transition in the client's tx log.
type TxMarkRecord struct {
	TxID  uint64
	State uint8
}

func (*TxMarkRecord) Kind() Kind { return KTxMark }
func (m *TxMarkRecord) fields(c *codec) {
	c.u64(&m.TxID)
	c.u8(&m.State)
}
