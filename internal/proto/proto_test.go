package proto

import (
	"bytes"
	"errors"
	mrand "math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// allMessages returns one populated instance of every message type.
func allMessages() []Message {
	spec := TableSpec{
		Name: "employees",
		Columns: []ColumnSpec{
			{Name: "salary#o", Kind: KindOPP, Indexed: true, Width: 13},
			{Name: "salary#f", Kind: KindField},
			{Name: "note", Kind: KindPlain, Indexed: false},
		},
	}
	rows := []Row{
		{ID: 1, Cells: [][]byte{{1, 2, 3}, {4}, nil}},
		{ID: 2, Cells: [][]byte{{9}, {8, 7}, []byte("public")}},
	}
	filter := &Filter{Col: "salary#o", Op: FilterRange, Lo: []byte{1}, Hi: []byte{2, 2}}
	return []Message{
		&PingRequest{},
		&CreateTableRequest{Spec: spec},
		&DropTableRequest{Table: "employees"},
		&ListTablesRequest{},
		&InsertRequest{Table: "employees", Rows: rows},
		&DeleteRequest{Table: "employees", RowIDs: []uint64{1, 99, 1 << 60}},
		&UpdateRequest{Table: "employees", Rows: rows[:1]},
		&ScanRequest{Table: "employees", Filter: filter, Projection: []string{"salary#f"}, Limit: 10, WithProof: true},
		&ScanRequest{Table: "employees"},
		&AggregateRequest{Table: "employees", Op: AggMedian, OrderCol: "salary#o", ValueCol: "salary#f", Filter: filter},
		&AggregateRequest{Table: "employees", Op: AggSum, ValueCol: "salary#f", GroupCol: "dept#o"},
		&GroupResult{Groups: []GroupPartial{
			{Key: []byte{1, 2}, Count: 3, Sum: 999},
			{Key: []byte{9}, Count: 1, Sum: 0},
		}},
		&GroupResult{Picks: true, Groups: []GroupPartial{
			{Key: []byte{1, 2}, Count: 3, Sum: 999, Pick: 1 << 40},
			{Key: []byte{9}, Count: 1, Sum: 5, Pick: 2},
		}},
		&GroupResult{Groups: []GroupPartial{{Count: 7, Sum: 123456}}}, // no key: an ungrouped aggregate's one bucket
		&GroupResult{},
		&JoinRequest{
			LeftTable: "employees", LeftCol: "eid#o",
			RightTable: "managers", RightCol: "eid#o",
			LeftProj: []string{"salary#f"}, RightProj: []string{"mid#f"},
			Filter: &Filter{Col: "dept#o", Op: FilterEq, Lo: []byte{7}},
		},
		&JoinRequest{LeftTable: "d", LeftCol: "k#o", RightTable: "a", RightCol: "k#o", RightIDsOnly: true, Limit: 500},
		&OKResponse{Affected: 42},
		&ErrorResponse{Code: CodeNoSuchTable, Msg: "employees"},
		&RowsResponse{Columns: []string{"a", "b", "c"}, Rows: rows, Proof: []byte{0xde, 0xad}},
		&RowsResponse{},
		&DigestResult{Root: []byte{1, 2, 3, 4}, Count: 1000},
		&TablesResponse{Specs: []TableSpec{spec}},
		&TablesResponse{},
		&StatsResponse{
			Tables: 3, Rows: 1 << 40, Pages: 77, ResidentPages: 12,
			ResidentBytes: 64 << 10, CacheBudget: 64 << 20,
			CacheHits: 100, CacheMisses: 9, Evictions: 4, Writebacks: 2,
			WALRecords: 55, CheckpointLSN: 50, CheckpointLag: 5, Checkpoints: 1,
		},
		&StatsResponse{},
		&TableStateRequest{Table: "employees"},
		&TxPrepareRequest{TxID: 9, Ops: [][]byte{Encode(&InsertRequest{Table: "employees", Rows: rows}), Encode(&DeleteRequest{Table: "employees", RowIDs: []uint64{1}})}},
		&TxCommitRequest{TxID: 9},
		&TxAbortRequest{TxID: 9},
		&TxOpsRecord{TxID: 9, Provider: 2, Ops: [][]byte{Encode(&UpdateRequest{Table: "employees", Rows: rows[:1]})}},
		&TxMarkRecord{TxID: 9, State: TxStateCommitted},
	}
}

// TestKindNumbers pins the wire number of every kind. Mutations and the tx
// records (KInsert…KTxMark) are on disk in WAL, hint-journal and tx-log
// records, so a kind that is retired — 42, once the digest request, 46, once
// KAggResult, and 47, once KJoinResult — leaves a hole that decodes as
// unknown instead of shifting the kinds after it; and allMessages, which seeds FuzzDecode's corpus, has a
// message of every kind. The tx log's mark states are on disk too.
func TestKindNumbers(t *testing.T) {
	want := map[Kind]uint8{
		KPing: 32, KCreateTable: 33, KDropTable: 34, KListTables: 35, KInsert: 36, KDelete: 37, KUpdate: 38,
		KScan: 39, KAggregate: 40, KJoin: 41, KOK: 43, KError: 44, KRows: 45,
		KDigestResult: 48, KTables: 49, KGroupResult: 50, KTableState: 51, KStats: 52,
		KTxPrepare: 53, KTxCommit: 54, KTxAbort: 55, KTxOps: 56, KTxMark: 57,
	}
	sent := map[Kind]bool{}
	for _, m := range allMessages() {
		sent[m.Kind()] = true
	}
	for k := Kind(0); k < formatTag; k++ {
		m, err := newMessage(k)
		n, known := want[k]
		switch {
		case known != (err == nil):
			t.Errorf("kind %d: newMessage = %T, %v", k, m, err)
		case known && (uint8(k) != n || m.Kind() != k || !sent[k]):
			t.Errorf("kind %d: pinned as %d, allocates a %T of kind %d, in allMessages: %v", k, n, m, m.Kind(), sent[k])
		}
	}
	if TxStateIntent != 1 || TxStateCommitted != 2 || TxStateResolved != 4 {
		t.Errorf("tx mark states are %d/%d/%d, pinned as 1/2/4", TxStateIntent, TxStateCommitted, TxStateResolved)
	}
	for _, retired := range []Kind{KDigest, 46, 47} {
		if _, err := Decode([]byte{formatTag | uint8(retired), 0, 0}); err == nil || errors.Is(err, ErrOldFormat) {
			t.Errorf("retired kind %d: %v, want an unknown-kind error", retired, err)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to Decode, which may refuse them but not
// panic; whatever it accepts must be a fixed point of the codec: the decoded
// message re-encodes to bytes that decode to the same message and encode to
// the same bytes again.
func FuzzDecode(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(Encode(m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		enc := Encode(m)
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("%T does not survive re-encoding: %v", m, err)
		}
		if again := Encode(back); !bytes.Equal(again, enc) || !reflect.DeepEqual(back, m) {
			t.Fatalf("%T is not a fixed point:\n first  %#v\n second %#v", m, m, back)
		}
	})
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range allMessages() {
		buf := Encode(m)
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T round trip mismatch:\n  sent %#v\n  got  %#v", m, m, got)
		}
	}
}

// The client hands one message to every provider's connection at once, so
// encoding must not store to it: the codec names each field to one routine
// for both directions, and only decoding may assign. Run under -race.
func TestEncodeIsReadOnly(t *testing.T) {
	msgs := allMessages()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, m := range msgs {
				Encode(m)
			}
		}()
	}
	wg.Wait()
}

func TestDecodeRejectsEmptyAndUnknown(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty: %v", err)
	}
	if _, err := Decode([]byte{0xff}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Decode([]byte{0}); err == nil {
		t.Error("kind 0 accepted")
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	buf := Encode(&OKResponse{Affected: 1})
	buf = append(buf, 0xaa)
	if _, err := Decode(buf); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// Every truncation of every message must fail cleanly, never panic, never
// succeed (except prefix-complete messages, which cannot occur because
// Decode demands full consumption).
func TestDecodeTruncationsNeverPanic(t *testing.T) {
	for _, m := range allMessages() {
		buf := Encode(m)
		for cut := 0; cut < len(buf); cut++ {
			if _, err := Decode(buf[:cut]); err == nil {
				// A shorter valid encoding would mean ambiguous framing.
				t.Errorf("%T: truncation to %d bytes decoded successfully", m, cut)
			}
		}
	}
}

// Random mutations must never panic (error or mis-decode are both
// acceptable; the transport adds CRC, this is defense in depth).
func TestDecodeRandomCorruptionNeverPanics(t *testing.T) {
	rng := mrand.New(mrand.NewSource(11))
	for _, m := range allMessages() {
		orig := Encode(m)
		for trial := 0; trial < 200; trial++ {
			buf := append([]byte(nil), orig...)
			for flips := 0; flips < 1+rng.Intn(4); flips++ {
				buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
			}
			_, _ = Decode(buf) // must not panic
		}
	}
}

func TestTableSpecValidate(t *testing.T) {
	opp := func(width uint8) ColumnSpec { return ColumnSpec{Name: "a", Kind: KindOPP, Indexed: true, Width: width} }
	cases := []struct {
		name string
		spec TableSpec
		ok   bool
	}{
		{"opp of the INT width", TableSpec{Name: "t", Columns: []ColumnSpec{opp(13)}}, true},
		{"narrowest opp", TableSpec{Name: "t", Columns: []ColumnSpec{opp(1)}}, true},
		{"widest opp", TableSpec{Name: "t", Columns: []ColumnSpec{opp(24)}}, true},
		{"every kind", TableSpec{Name: "t", Columns: []ColumnSpec{opp(14), {Name: "f", Kind: KindField}, {Name: "p", Kind: KindPlain}}}, true},
		{"empty table name", TableSpec{Name: "", Columns: []ColumnSpec{opp(13)}}, false},
		{"no columns", TableSpec{Name: "t"}, false},
		{"unnamed column", TableSpec{Name: "t", Columns: []ColumnSpec{{Name: "", Kind: KindOPP, Width: 13}}}, false},
		{"duplicate column", TableSpec{Name: "t", Columns: []ColumnSpec{opp(13), {Name: "a", Kind: KindPlain}}}, false},
		{"unknown kind", TableSpec{Name: "t", Columns: []ColumnSpec{{Name: "a", Kind: 0}}}, false},
		{"indexed field share", TableSpec{Name: "t", Columns: []ColumnSpec{{Name: "a", Kind: KindField, Indexed: true}}}, false},
		{"indexed plain cell", TableSpec{Name: "t", Columns: []ColumnSpec{{Name: "a", Kind: KindPlain, Indexed: true}}}, false},
		{"opp without a width", TableSpec{Name: "t", Columns: []ColumnSpec{opp(0)}}, false},
		{"opp wider than a share", TableSpec{Name: "t", Columns: []ColumnSpec{opp(25)}}, false},
		{"field share with a width", TableSpec{Name: "t", Columns: []ColumnSpec{{Name: "a", Kind: KindField, Width: 8}}}, false},
		{"plain cell with a width", TableSpec{Name: "t", Columns: []ColumnSpec{{Name: "a", Kind: KindPlain, Width: 13}}}, false},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}

func TestColumnIndex(t *testing.T) {
	spec := TableSpec{Name: "t", Columns: []ColumnSpec{
		{Name: "a", Kind: KindOPP}, {Name: "b", Kind: KindField},
	}}
	if got := spec.ColumnIndex("b"); got != 1 {
		t.Errorf("ColumnIndex(b) = %d", got)
	}
	if got := spec.ColumnIndex("zz"); got != -1 {
		t.Errorf("ColumnIndex(zz) = %d", got)
	}
}

func TestStringers(t *testing.T) {
	if KindOPP.String() != "opp" || KindField.String() != "field" || KindPlain.String() != "plain" {
		t.Error("ColKind strings wrong")
	}
	if !strings.Contains(ColKind(9).String(), "9") {
		t.Error("unknown ColKind string")
	}
	if FilterEq.String() != "eq" || FilterRange.String() != "range" {
		t.Error("FilterOp strings wrong")
	}
	if !strings.Contains(FilterOp(9).String(), "9") {
		t.Error("unknown FilterOp string")
	}
	for op, want := range map[AggOp]string{
		AggCount: "count", AggSum: "sum", AggMin: "min", AggMax: "max", AggMedian: "median",
	} {
		if op.String() != want {
			t.Errorf("AggOp %d = %q", op, op.String())
		}
	}
	if !strings.Contains(AggOp(99).String(), "99") {
		t.Error("unknown AggOp string")
	}
}

func TestRemoteError(t *testing.T) {
	e := &RemoteError{Code: CodeNoSuchTable, Msg: "employees"}
	if !strings.Contains(e.Error(), "no such table") || !strings.Contains(e.Error(), "employees") {
		t.Errorf("error text: %q", e.Error())
	}
	var codes []ErrorCode
	for c := CodeUnknown; c <= CodeInternal; c++ {
		codes = append(codes, c)
	}
	for _, c := range codes {
		if c.String() == "" {
			t.Errorf("code %d has empty string", c)
		}
	}
}

func TestEncodeSizeAccounting(t *testing.T) {
	// An insert of 1000 rows with one 13-byte OPP cell and one 8-byte field
	// cell should be close to the raw payload size — the protocol must not
	// bloat communication-cost measurements.
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{ID: uint64(i), Cells: [][]byte{make([]byte, 13), make([]byte, 8)}}
	}
	buf := Encode(&InsertRequest{Table: "t", Rows: rows})
	payload := 1000 * (13 + 8)
	if len(buf) > payload+payload/4+64 {
		t.Errorf("encoded %d bytes for %d payload bytes (overhead too high)", len(buf), payload)
	}
}

func BenchmarkEncodeInsert1000(b *testing.B) {
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{ID: uint64(i), Cells: [][]byte{make([]byte, 13), make([]byte, 8)}}
	}
	msg := &InsertRequest{Table: "t", Rows: rows}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Encode(msg)
	}
}

func BenchmarkDecodeInsert1000(b *testing.B) {
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{ID: uint64(i), Cells: [][]byte{make([]byte, 13), make([]byte, 8)}}
	}
	buf := Encode(&InsertRequest{Table: "t", Rows: rows})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// Every encoded message starts with its kind under this format's tag, and a
// first byte without the tag — the bare kinds formats 1 and 2 wrote, 1–26
// and 32–57 — is refused by name, whatever follows it.
func TestFormatTag(t *testing.T) {
	for _, m := range allMessages() {
		if buf := Encode(m); buf[0] != formatTag|uint8(m.Kind()) || m.Kind() >= formatTag {
			t.Errorf("%T encodes with first byte %#x, kind %d", m, buf[0], m.Kind())
		}
	}
	body := Encode(&CreateTableRequest{Spec: TableSpec{Name: "t", Columns: []ColumnSpec{{Name: "a", Kind: KindPlain}}}})[1:]
	for b := 0; b < 256; b++ {
		_, err := Decode(append([]byte{byte(b)}, body...))
		if tagged := byte(b)&formatMask == formatTag; errors.Is(err, ErrOldFormat) == tagged {
			t.Errorf("first byte %#x: %v", b, err)
		}
	}
}
