package server

import (
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"

	"sssdb/internal/merkle"
	"sssdb/internal/proto"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

func newProvider(t testing.TB) *Provider {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	return New(st)
}

func spec() proto.TableSpec {
	return proto.TableSpec{
		Name: "t",
		Columns: []proto.ColumnSpec{
			{Name: "a#o", Kind: proto.KindOPP, Indexed: true, Width: 13},
			{Name: "a#f", Kind: proto.KindField},
		},
	}
}

// oppCell is an order-preserving cell of spec's width, ordered by v.
func oppCell(v uint64) []byte {
	c := make([]byte, 13)
	binary.BigEndian.PutUint64(c[5:], v)
	return c
}

func cell8(v uint64) []byte {
	c := make([]byte, 8)
	binary.BigEndian.PutUint64(c, v)
	return c
}

// scan serves a scan down the provider's one scan path, HandleStream, and
// answers what a client's Call would get: the batches merged, or the error
// the stream ended with.
func scan(p *Provider, req *proto.ScanRequest) proto.Message {
	var resp *proto.RowsResponse
	handled, err := p.HandleStream(req, func(b *proto.RowsResponse) error {
		resp = proto.MergeRowsChunk(resp, b)
		return nil
	})
	var re *proto.RemoteError
	switch {
	case !handled:
		return &proto.ErrorResponse{Code: proto.CodeInternal, Msg: "scan not streamed"}
	case errors.As(err, &re):
		return &proto.ErrorResponse{Code: re.Code, Msg: re.Msg}
	case err != nil:
		return &proto.ErrorResponse{Code: proto.CodeInternal, Msg: err.Error()}
	}
	return resp
}

func TestHandleFullLifecycle(t *testing.T) {
	p := newProvider(t)
	conn := transport.NewLocal(p)
	defer conn.Close()

	call := func(req proto.Message) proto.Message {
		t.Helper()
		resp, err := conn.Call(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	stats, ok := call(&proto.PingRequest{}).(*proto.StatsResponse)
	if !ok {
		t.Fatal("ping failed")
	}
	if stats.Tables != 0 || stats.Rows != 0 {
		t.Fatalf("fresh store reported tables=%d rows=%d", stats.Tables, stats.Rows)
	}
	if _, ok := call(&proto.CreateTableRequest{Spec: spec()}).(*proto.OKResponse); !ok {
		t.Fatal("create failed")
	}
	rows := []proto.Row{
		{ID: 1, Cells: [][]byte{oppCell(10), cell8(30)}},
		{ID: 2, Cells: [][]byte{oppCell(20), cell8(60)}},
		{ID: 3, Cells: [][]byte{oppCell(30), cell8(90)}},
	}
	okResp, ok := call(&proto.InsertRequest{Table: "t", Rows: rows}).(*proto.OKResponse)
	if !ok || okResp.Affected != 3 {
		t.Fatalf("insert: %#v", okResp)
	}
	tbls, ok := call(&proto.ListTablesRequest{}).(*proto.TablesResponse)
	if !ok || len(tbls.Specs) != 1 {
		t.Fatalf("list: %#v", tbls)
	}
	scan, ok := call(&proto.ScanRequest{
		Table:  "t",
		Filter: &proto.Filter{Col: "a#o", Op: proto.FilterRange, Lo: oppCell(10), Hi: oppCell(20)},
	}).(*proto.RowsResponse)
	if !ok || len(scan.Rows) != 2 {
		t.Fatalf("scan: %#v", scan)
	}
	agg, ok := call(&proto.AggregateRequest{
		Table: "t", Op: proto.AggSum, ValueCol: "a#f",
	}).(*proto.GroupResult)
	if !ok || len(agg.Groups) != 1 || agg.Groups[0].Sum != 180 || agg.Groups[0].Count != 3 {
		t.Fatalf("agg: %#v", agg)
	}
	join, ok := call(&proto.JoinRequest{
		LeftTable: "t", LeftCol: "a#o", RightTable: "t", RightCol: "a#o", LeftProj: []string{"a#f"}, RightIDsOnly: true,
	}).(*proto.RowsResponse)
	if !ok || len(join.Rows) != 3 || !slices.Equal(join.Columns, []string{"a#f", proto.JoinRightID}) {
		t.Fatalf("join: %#v", join)
	}
	for _, pair := range join.Rows {
		if rid := binary.BigEndian.Uint64(pair.Cells[1]); rid != pair.ID {
			t.Fatalf("self join paired row %d with row %d", pair.ID, rid)
		}
	}
	if e, ok := p.Handle(&proto.JoinRequest{LeftTable: "t", LeftCol: "a#o", RightTable: "t", RightCol: "a#o"}).(*proto.ErrorResponse); !ok || e.Code != proto.CodeBadRequest {
		t.Fatalf("Handle answered a join: %#v", e)
	}
	proved, ok := call(&proto.ScanRequest{
		Table: "t", WithProof: true,
		Filter: &proto.Filter{Col: "a#o", Op: proto.FilterRange, Lo: oppCell(10), Hi: oppCell(20)},
	}).(*proto.RowsResponse)
	if !ok {
		t.Fatalf("proof-carrying scan: %#v", proved)
	}
	if p, err := merkle.UnmarshalRangeProof(proved.Proof); err != nil || p.N != 3 {
		t.Fatalf("proof of a 3-row table: %+v, %v", p, err)
	}
	upd, ok := call(&proto.UpdateRequest{Table: "t", Rows: []proto.Row{
		{ID: 1, Cells: [][]byte{oppCell(99), cell8(297)}},
	}}).(*proto.OKResponse)
	if !ok || upd.Affected != 1 {
		t.Fatalf("update: %#v", upd)
	}
	del, ok := call(&proto.DeleteRequest{Table: "t", RowIDs: []uint64{2}}).(*proto.OKResponse)
	if !ok || del.Affected != 1 {
		t.Fatalf("delete: %#v", del)
	}
	if _, ok := call(&proto.DropTableRequest{Table: "t"}).(*proto.OKResponse); !ok {
		t.Fatal("drop failed")
	}
}

// An in-process provider serves through the transport's admission
// scheduler, so its ping answer carries the scheduler's serving stats.
func TestLocalPingCarriesSchedStats(t *testing.T) {
	conn := transport.NewLocal(newProvider(t))
	defer conn.Close()
	resp, err := conn.Call(&proto.PingRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := resp.(*proto.StatsResponse); !ok || st.Admitted < 1 {
		t.Fatalf("ping answered %#v, want a StatsResponse with Admitted >= 1", resp)
	}
}

func TestErrorCodeMapping(t *testing.T) {
	p := newProvider(t)
	check := func(req proto.Message, want proto.ErrorCode) {
		t.Helper()
		var resp proto.Message
		if sr, ok := req.(*proto.ScanRequest); ok {
			resp = scan(p, sr)
		} else {
			resp = p.Handle(req)
		}
		e, ok := resp.(*proto.ErrorResponse)
		if !ok {
			t.Fatalf("%T: got %#v, want error", req, resp)
		}
		if e.Code != want {
			t.Fatalf("%T: code %v, want %v", req, e.Code, want)
		}
	}
	check(&proto.ScanRequest{Table: "missing"}, proto.CodeNoSuchTable)
	check(&proto.DropTableRequest{Table: "missing"}, proto.CodeNoSuchTable)

	if resp := p.Handle(&proto.CreateTableRequest{Spec: spec()}); resp.Kind() != proto.KOK {
		t.Fatalf("create: %#v", resp)
	}
	check(&proto.CreateTableRequest{Spec: spec()}, proto.CodeTableExists)
	check(&proto.ScanRequest{Table: "t", Projection: []string{"zz"}}, proto.CodeNoSuchColumn)
	check(&proto.ScanRequest{Table: "t", WithProof: true}, proto.CodeBadRequest)
	check(&proto.UpdateRequest{Table: "t", Rows: []proto.Row{
		{ID: 9, Cells: [][]byte{oppCell(1), cell8(1)}},
	}}, proto.CodeNoSuchRow)

	if resp := p.Handle(&proto.InsertRequest{Table: "t", Rows: []proto.Row{
		{ID: 1, Cells: [][]byte{oppCell(1), cell8(1)}},
	}}); resp.Kind() != proto.KOK {
		t.Fatalf("insert: %#v", resp)
	}
	check(&proto.InsertRequest{Table: "t", Rows: []proto.Row{
		{ID: 1, Cells: [][]byte{oppCell(1), cell8(1)}},
	}}, proto.CodeDuplicateRow)

	// A response message arriving as a request is rejected.
	check(&proto.OKResponse{}, proto.CodeBadRequest)
}

// TestMutationRequests walks the eight requests that change a provider
// through Handle in order: each answers OK with the rows it changed, or the
// code of the check that refused it, and a refused request changes nothing.
func TestMutationRequests(t *testing.T) {
	p := newProvider(t)
	r := func(id, v uint64) proto.Row {
		return proto.Row{ID: id, Cells: [][]byte{oppCell(v), cell8(v)}}
	}
	ops := func(msgs ...proto.Message) [][]byte {
		raw := make([][]byte, len(msgs))
		for i, m := range msgs {
			raw[i] = proto.Encode(m)
		}
		return raw
	}
	steps := []struct {
		req      proto.Message
		code     proto.ErrorCode // 0: OK
		affected uint64
		rows     int // rows in the table afterwards
	}{
		{req: &proto.CreateTableRequest{Spec: spec()}},
		{req: &proto.InsertRequest{Table: "t", Rows: []proto.Row{r(1, 10), r(2, 20), r(3, 30)}}, affected: 3, rows: 3},
		{req: &proto.UpdateRequest{Table: "t", Rows: []proto.Row{r(1, 11), r(2, 21)}}, affected: 2, rows: 3},
		{req: &proto.UpdateRequest{Table: "t", Rows: []proto.Row{r(1, 12), r(1, 13)}}, code: proto.CodeDuplicateRow, rows: 3},
		{req: &proto.DeleteRequest{Table: "t", RowIDs: []uint64{3, 99}}, affected: 1, rows: 2},
		{req: &proto.DeleteRequest{Table: "t", RowIDs: []uint64{99}}, rows: 2},
		{req: &proto.TxCommitRequest{TxID: 5}, code: proto.CodeNoSuchTx, rows: 2},
		{req: &proto.TxAbortRequest{TxID: 5}, rows: 2},
		{req: &proto.TxPrepareRequest{TxID: 5, Ops: ops(&proto.DropTableRequest{Table: "t"})}, code: proto.CodeBadRequest, rows: 2},
		{req: &proto.TxPrepareRequest{TxID: 5, Ops: ops(&proto.UpdateRequest{Table: "t", Rows: []proto.Row{r(3, 31)}})},
			code: proto.CodeNoSuchRow, rows: 2},
		{req: &proto.TxPrepareRequest{TxID: 5, Ops: ops(
			&proto.InsertRequest{Table: "t", Rows: []proto.Row{r(3, 31)}},
			&proto.UpdateRequest{Table: "t", Rows: []proto.Row{r(3, 32)}},
			&proto.DeleteRequest{Table: "t", RowIDs: []uint64{1}})}, rows: 2},
		{req: &proto.TxPrepareRequest{TxID: 6, Ops: ops(&proto.DeleteRequest{Table: "t", RowIDs: []uint64{2}})}, rows: 2},
		{req: &proto.TxAbortRequest{TxID: 6}, rows: 2},
		{req: &proto.TxCommitRequest{TxID: 6}, code: proto.CodeNoSuchTx, rows: 2},
		{req: &proto.TxCommitRequest{TxID: 5}, rows: 2},
		{req: &proto.TxCommitRequest{TxID: 5}, code: proto.CodeNoSuchTx, rows: 2},
		{req: &proto.DropTableRequest{Table: "t"}},
		{req: &proto.DropTableRequest{Table: "t"}, code: proto.CodeNoSuchTable},
	}
	for i, st := range steps {
		switch resp := p.Handle(st.req).(type) {
		case *proto.OKResponse:
			if st.code != 0 || resp.Affected != st.affected {
				t.Fatalf("step %d %T: OK with %d affected, want code %v / %d affected", i, st.req, resp.Affected, st.code, st.affected)
			}
		case *proto.ErrorResponse:
			if resp.Code != st.code {
				t.Fatalf("step %d %T: %v (%s), want code %v", i, st.req, resp.Code, resp.Msg, st.code)
			}
		default:
			t.Fatalf("step %d %T: answered %T", i, st.req, resp)
		}
		if n, err := p.Store().RowCount("t"); err == nil && n != st.rows {
			t.Fatalf("step %d %T: %d rows afterwards, want %d", i, st.req, n, st.rows)
		}
	}
	if n := p.Store().StagedTxs(); n != 0 {
		t.Fatalf("%d transactions still staged", n)
	}
}

func TestGroupedAggregateDispatch(t *testing.T) {
	p := newProvider(t)
	if resp := p.Handle(&proto.CreateTableRequest{Spec: spec()}); resp.Kind() != proto.KOK {
		t.Fatalf("create: %#v", resp)
	}
	rows := []proto.Row{
		{ID: 1, Cells: [][]byte{oppCell(10), cell8(5)}},
		{ID: 2, Cells: [][]byte{oppCell(10), cell8(7)}},
		{ID: 3, Cells: [][]byte{oppCell(20), cell8(1)}},
	}
	if resp := p.Handle(&proto.InsertRequest{Table: "t", Rows: rows}); resp.Kind() != proto.KOK {
		t.Fatalf("insert: %#v", resp)
	}
	resp := p.Handle(&proto.AggregateRequest{
		Table: "t", Op: proto.AggSum, ValueCol: "a#f", GroupCol: "a#o",
	})
	gr, ok := resp.(*proto.GroupResult)
	if !ok {
		t.Fatalf("got %#v", resp)
	}
	if len(gr.Groups) != 2 || gr.Groups[0].Count != 2 || gr.Groups[0].Sum != 12 || gr.Groups[1].Sum != 1 {
		t.Fatalf("groups: %+v", gr.Groups)
	}
	// The same arm answers a grouped MEDIAN, with each bucket's picked row.
	resp = p.Handle(&proto.AggregateRequest{
		Table: "t", Op: proto.AggMedian, OrderCol: "a#o", ValueCol: "a#f", GroupCol: "a#o",
	})
	if gr, ok = resp.(*proto.GroupResult); !ok || !gr.Picks || len(gr.Groups) != 2 || gr.Groups[0].Pick != 1 || gr.Groups[0].Sum != 5 || gr.Groups[1].Pick != 3 {
		t.Fatalf("grouped median: %#v", resp)
	}
	// Grouped errors map to protocol codes too.
	errResp := p.Handle(&proto.AggregateRequest{
		Table: "t", Op: proto.AggMedian, ValueCol: "a#f", GroupCol: "a#f",
	})
	if e, ok := errResp.(*proto.ErrorResponse); !ok || e.Code != proto.CodeBadRequest {
		t.Fatalf("grouping by a field share: %#v", errResp)
	}
}

func TestStoreAccessor(t *testing.T) {
	p := newProvider(t)
	if p.Store() == nil {
		t.Fatal("Store() returned nil")
	}
}

// A bound built with the wrong scheme — another domain's, or a 24-byte share
// from before shares were as wide as their domain — must come back to the
// client as a bad request on every read path, never as rows.
func TestMisSizedBoundIsBadRequest(t *testing.T) {
	p := newProvider(t)
	conn := transport.NewLocal(p)
	defer conn.Close()
	other := spec()
	other.Name, other.Columns[0].Width = "u", 14
	for _, s := range []proto.TableSpec{spec(), other} {
		if _, err := conn.Call(&proto.CreateTableRequest{Spec: s}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Call(&proto.InsertRequest{Table: "t", Rows: []proto.Row{{ID: 1, Cells: [][]byte{oppCell(1), cell8(1)}}}}); err != nil {
		t.Fatal(err)
	}
	wide := &proto.Filter{Col: "a#o", Op: proto.FilterRange, Lo: make([]byte, 24), Hi: oppCell(9)}
	for name, req := range map[string]proto.Message{
		"scan":      &proto.ScanRequest{Table: "t", Filter: wide},
		"proof":     &proto.ScanRequest{Table: "t", Filter: wide, WithProof: true},
		"aggregate": &proto.AggregateRequest{Table: "t", Op: proto.AggSum, ValueCol: "a#f", Filter: wide},
		"grouped":   &proto.AggregateRequest{Table: "t", Op: proto.AggCount, GroupCol: "a#o", Filter: wide},
		"join":      &proto.JoinRequest{LeftTable: "t", LeftCol: "a#o", RightTable: "u", RightCol: "a#o"},
	} {
		resp, err := conn.Call(req)
		if e, ok := resp.(*proto.ErrorResponse); err != nil || !ok || e.Code != proto.CodeBadRequest {
			t.Errorf("%s: answered %#v, %v; want CodeBadRequest", name, resp, err)
		} else if !strings.Contains(e.Msg, "a#o") {
			t.Errorf("%s: %q does not name the column", name, e.Msg)
		}
	}
	// The streamed scan, the path unverified SELECTs take.
	err := transport.CallStream(conn, &proto.ScanRequest{Table: "t", Filter: wide}, func(*proto.RowsResponse) error {
		t.Error("a mis-sized bound streamed rows")
		return nil
	})
	var re *proto.RemoteError
	if !errors.As(err, &re) || re.Code != proto.CodeBadRequest {
		t.Errorf("streamed scan: %v, want CodeBadRequest", err)
	}
}
