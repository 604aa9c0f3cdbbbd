package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sssdb/internal/field"
	"sssdb/internal/merkle"
	"sssdb/internal/proto"
	"sssdb/internal/wal"
)

func testSpec() proto.TableSpec {
	return proto.TableSpec{
		Name: "employees",
		Columns: []proto.ColumnSpec{
			{Name: "salary#o", Kind: proto.KindOPP, Indexed: true, Width: oppCellSize},
			{Name: "salary#f", Kind: proto.KindField},
			{Name: "note", Kind: proto.KindPlain},
		},
	}
}

// oppCellSize is the width the test tables declare for their
// order-preserving columns: what the client's default INT domain (40 bits,
// degree 3) serializes a share to.
const oppCellSize = 13

// oppCell fabricates a deterministic order-preserving cell of that width
// whose byte order follows v.
func oppCell(v uint64) []byte {
	c := make([]byte, oppCellSize)
	binary.BigEndian.PutUint64(c[oppCellSize-8:], v)
	return c
}

func fieldCell(v uint64) []byte {
	c := make([]byte, fieldCellSize)
	binary.BigEndian.PutUint64(c, v)
	return c
}

func row(id, salary uint64) proto.Row {
	return proto.Row{
		ID:    id,
		Cells: [][]byte{oppCell(salary), fieldCell(salary * 3), []byte(fmt.Sprintf("n%d", id))},
	}
}

func memStore(t testing.TB) *Store {
	t.Helper()
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustCreate(t testing.TB, s *Store) {
	t.Helper()
	if err := s.CreateTable(testSpec()); err != nil {
		t.Fatal(err)
	}
}

func TestCreateDropList(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	if err := s.CreateTable(testSpec()); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	specs := s.ListTables()
	if len(specs) != 1 || specs[0].Name != "employees" {
		t.Fatalf("ListTables = %v", specs)
	}
	if err := s.DropTable("employees"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("employees"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("double drop: %v", err)
	}
	if len(s.ListTables()) != 0 {
		t.Fatal("table not dropped")
	}
	bad := testSpec()
	bad.Columns = nil
	if err := s.CreateTable(bad); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("invalid spec: %v", err)
	}
}

func TestInsertValidation(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	if err := s.Insert("nope", []proto.Row{row(1, 10)}); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("missing table: %v", err)
	}
	// Wrong arity.
	if err := s.Insert("employees", []proto.Row{{ID: 1, Cells: [][]byte{oppCell(1)}}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad arity: %v", err)
	}
	// Wrong OPP width.
	badOpp := row(1, 10)
	badOpp.Cells[0] = []byte{1, 2, 3}
	if err := s.Insert("employees", []proto.Row{badOpp}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad opp width: %v", err)
	}
	// Wrong field width.
	badField := row(1, 10)
	badField.Cells[1] = []byte{1}
	if err := s.Insert("employees", []proto.Row{badField}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad field width: %v", err)
	}
	// Valid rows, duplicate within batch.
	if err := s.Insert("employees", []proto.Row{row(1, 10), row(1, 20)}); !errors.Is(err, ErrDuplicateRow) {
		t.Fatalf("in-batch duplicate: %v", err)
	}
	if err := s.Insert("employees", []proto.Row{row(1, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("employees", []proto.Row{row(1, 20)}); !errors.Is(err, ErrDuplicateRow) {
		t.Fatalf("cross-batch duplicate: %v", err)
	}
	// Failed batch is atomic: nothing from it was applied.
	if n, _ := s.RowCount("employees"); n != 1 {
		t.Fatalf("rows = %d, want 1", n)
	}
}

func TestScanAll(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	for i := uint64(1); i <= 5; i++ {
		if err := s.Insert("employees", []proto.Row{row(i, i*10)}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := s.Scan("employees", nil, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 5 || len(resp.Columns) != 3 {
		t.Fatalf("rows=%d cols=%v", len(resp.Rows), resp.Columns)
	}
	// Limit.
	resp, err = s.Scan("employees", nil, nil, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 2 {
		t.Fatalf("limited rows = %d", len(resp.Rows))
	}
	// Projection.
	resp, err = s.Scan("employees", nil, []string{"salary#f"}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Columns) != 1 || resp.Columns[0] != "salary#f" || len(resp.Rows[0].Cells) != 1 {
		t.Fatalf("projection wrong: %v", resp.Columns)
	}
	if _, err := s.Scan("employees", nil, []string{"missing"}, 0, false); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("bad projection: %v", err)
	}
}

func TestScanFilters(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	salaries := []uint64{10, 20, 40, 60, 80, 20}
	for i, sal := range salaries {
		if err := s.Insert("employees", []proto.Row{row(uint64(i+1), sal)}); err != nil {
			t.Fatal(err)
		}
	}
	// Equality on indexed OPP column, with duplicates.
	resp, err := s.Scan("employees", &proto.Filter{
		Col: "salary#o", Op: proto.FilterEq, Lo: oppCell(20),
	}, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 2 {
		t.Fatalf("eq matched %d rows, want 2", len(resp.Rows))
	}
	// Range [20, 60].
	resp, err = s.Scan("employees", &proto.Filter{
		Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(20), Hi: oppCell(60),
	}, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 4 {
		t.Fatalf("range matched %d rows, want 4", len(resp.Rows))
	}
	// Rows come back in index (share) order.
	var prev []byte
	for _, r := range resp.Rows {
		if prev != nil && bytes.Compare(prev, r.Cells[0]) > 0 {
			t.Fatal("range scan not in share order")
		}
		prev = r.Cells[0]
	}
	// Unindexed plain column filter (full scan path).
	resp, err = s.Scan("employees", &proto.Filter{
		Col: "note", Op: proto.FilterEq, Lo: []byte("n3"),
	}, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0].ID != 3 {
		t.Fatalf("plain filter: %v", resp.Rows)
	}
	// Filtering on a field-share column is rejected.
	if _, err := s.Scan("employees", &proto.Filter{
		Col: "salary#f", Op: proto.FilterEq, Lo: fieldCell(30),
	}, nil, 0, false); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("field filter: %v", err)
	}
	// Unknown filter column / op.
	if _, err := s.Scan("employees", &proto.Filter{Col: "zz", Op: proto.FilterEq}, nil, 0, false); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("bad filter col: %v", err)
	}
	if _, err := s.Scan("employees", &proto.Filter{Col: "salary#o", Op: 99}, nil, 0, false); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad filter op: %v", err)
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	for i := uint64(1); i <= 4; i++ {
		if err := s.Insert("employees", []proto.Row{row(i, i*10)}); err != nil {
			t.Fatal(err)
		}
	}
	affected, err := s.Delete("employees", []uint64{2, 3, 99})
	if err != nil {
		t.Fatal(err)
	}
	if affected != 2 {
		t.Fatalf("affected = %d", affected)
	}
	// Deleted rows are gone from scans and indexes.
	resp, err := s.Scan("employees", &proto.Filter{
		Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(0), Hi: oppCell(100),
	}, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 2 {
		t.Fatalf("rows after delete = %d", len(resp.Rows))
	}
	// Update moves the row in the index.
	updated := row(1, 75)
	if err := s.Update("employees", []proto.Row{updated}); err != nil {
		t.Fatal(err)
	}
	resp, err = s.Scan("employees", &proto.Filter{
		Col: "salary#o", Op: proto.FilterEq, Lo: oppCell(75),
	}, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0].ID != 1 {
		t.Fatalf("updated row not found: %v", resp.Rows)
	}
	resp, err = s.Scan("employees", &proto.Filter{
		Col: "salary#o", Op: proto.FilterEq, Lo: oppCell(10),
	}, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 0 {
		t.Fatal("old index entry survived update")
	}
	if err := s.Update("employees", []proto.Row{row(42, 5)}); !errors.Is(err, ErrNoSuchRow) {
		t.Fatalf("update missing row: %v", err)
	}
}

func TestAggregates(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	salaries := []uint64{10, 20, 40, 60, 80}
	for i, sal := range salaries {
		if err := s.Insert("employees", []proto.Row{row(uint64(i+1), sal)}); err != nil {
			t.Fatal(err)
		}
	}
	filter := &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(20), Hi: oppCell(60)}
	// Without a GroupCol the matching rows are one bucket with an empty key.
	bucket := func(op proto.AggOp, orderCol, valueCol string) proto.GroupPartial {
		t.Helper()
		res, err := s.Aggregate(&proto.AggregateRequest{Table: "employees", Op: op, OrderCol: orderCol, ValueCol: valueCol, Filter: filter})
		if err != nil {
			t.Fatal(err)
		}
		if picks := op != proto.AggCount && op != proto.AggSum; len(res.Groups) != 1 || res.Groups[0].Key != nil || res.Picks != picks {
			t.Fatalf("%s: %+v, want one bucket with no key, Picks = %v", op, res, picks)
		}
		return res.Groups[0]
	}
	if count := bucket(proto.AggCount, "", ""); count.Count != 3 || count.Sum != 0 {
		t.Fatalf("count = %+v", count)
	}
	// field cells hold salary*3: (20+40+60)*3 = 360.
	if sum := bucket(proto.AggSum, "", "salary#f"); sum.Count != 3 || sum.Sum != 360 {
		t.Fatalf("sum = %+v", sum)
	}
	// A pick names the winning row and carries its value share alone.
	for _, c := range []struct {
		op     proto.AggOp
		id     uint64
		salary uint64
	}{{proto.AggMin, 2, 20}, {proto.AggMax, 4, 60}, {proto.AggMedian, 3, 40}} {
		if got := bucket(c.op, "salary#o", "salary#f"); got.Count != 3 || got.Pick != c.id || got.Sum != c.salary*3 {
			t.Fatalf("%s = %+v, want row %d and the field share of %d", c.op, got, c.id, c.salary)
		}
	}
	// Empty match: no bucket.
	none := &proto.Filter{Col: "salary#o", Op: proto.FilterEq, Lo: oppCell(7777)}
	res, err := s.Aggregate(&proto.AggregateRequest{Table: "employees", Op: proto.AggMedian, OrderCol: "salary#o", ValueCol: "salary#f", Filter: none})
	if err != nil || len(res.Groups) != 0 {
		t.Fatalf("empty median: %+v, %v", res, err)
	}
	// Error cases.
	for _, c := range []struct {
		name string
		req  proto.AggregateRequest
		want error
	}{
		{"max with a missing value column", proto.AggregateRequest{Op: proto.AggMax, OrderCol: "salary#o", ValueCol: "zz"}, ErrNoSuchColumn},
		{"max of an opp value column", proto.AggregateRequest{Op: proto.AggMax, OrderCol: "salary#o", ValueCol: "salary#o"}, ErrBadRequest},
		{"sum over opp", proto.AggregateRequest{Op: proto.AggSum, ValueCol: "salary#o"}, ErrBadRequest},
		{"sum over missing", proto.AggregateRequest{Op: proto.AggSum, ValueCol: "zz"}, ErrNoSuchColumn},
		{"min over field", proto.AggregateRequest{Op: proto.AggMin, OrderCol: "salary#f"}, ErrBadRequest},
		{"min over missing", proto.AggregateRequest{Op: proto.AggMin, OrderCol: "zz"}, ErrNoSuchColumn},
		{"bad op", proto.AggregateRequest{Op: 99}, ErrBadRequest},
	} {
		c.req.Table, c.req.Filter = "employees", filter
		if _, err := s.Aggregate(&c.req); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
}

// Partial sums across providers must reconstruct the true sum; the store
// only needs to sum mod p, which this test checks against field arithmetic.
func TestAggregateSumModular(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	// Use values near the modulus to exercise wraparound.
	big1 := field.Modulus - 5
	r1 := row(1, 10)
	r1.Cells[1] = fieldCell(big1)
	r2 := row(2, 20)
	r2.Cells[1] = fieldCell(17)
	if err := s.Insert("employees", []proto.Row{r1, r2}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Aggregate(&proto.AggregateRequest{Table: "employees", Op: proto.AggSum, ValueCol: "salary#f"})
	if err != nil {
		t.Fatal(err)
	}
	want := field.New(big1).Add(field.New(17)).Uint64()
	if len(res.Groups) != 1 || res.Groups[0].Sum != want {
		t.Fatalf("sum = %+v, want %d", res.Groups, want)
	}
}

// proofRoot is the root and leaf count of the salary column's Merkle tree,
// as the proof of a whole-range verified scan carries them.
func proofRoot(s *Store) (merkle.Hash, uint64, error) {
	f := &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(0), Hi: oppCell(^uint64(0))}
	resp, err := s.Scan("employees", f, nil, 0, true)
	if err != nil {
		return merkle.Hash{}, 0, err
	}
	p, err := merkle.UnmarshalRangeProof(resp.Proof)
	if err != nil {
		return merkle.Hash{}, 0, err
	}
	return p.Root, p.N, nil
}

func TestDigestAndProof(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	salaries := []uint64{10, 20, 40, 60, 80}
	for i, sal := range salaries {
		if err := s.Insert("employees", []proto.Row{row(uint64(i+1), sal)}); err != nil {
			t.Fatal(err)
		}
	}
	root, n, err := proofRoot(s)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || root == (merkle.Hash{}) {
		t.Fatalf("proof of %d leaves under root %x", n, root)
	}
	// The root changes with data.
	if err := s.Insert("employees", []proto.Row{row(6, 70)}); err != nil {
		t.Fatal(err)
	}
	root2, n2, err := proofRoot(s)
	if err != nil {
		t.Fatal(err)
	}
	if root == root2 || n2 != 6 {
		t.Fatal("root did not change after insert")
	}

	// Verified range scan: the returned rows + proof must recompute the root.
	f := &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(20), Hi: oppCell(60)}
	resp, err := s.Scan("employees", f, nil, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 3 || resp.Proof == nil {
		t.Fatalf("rows=%d proof=%v", len(resp.Rows), resp.Proof != nil)
	}
	p, err := merkle.UnmarshalRangeProof(resp.Proof)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the leaf run: left fence + matched rows + right fence.
	var run []merkle.Hash
	if p.LeftFence != nil {
		run = append(run, merkle.LeafHash(p.LeftFence.Key, p.LeftFence.RowDigest))
	}
	for _, r := range resp.Rows {
		run = append(run, merkle.LeafHash(ProofLeaf(nil, r.Cells[0], r)))
	}
	if p.RightFence != nil {
		run = append(run, merkle.LeafHash(p.RightFence.Key, p.RightFence.RowDigest))
	}
	got, err := merkle.VerifyRange(int(p.N), int(p.Start), run, p.Hashes)
	if err != nil {
		t.Fatal(err)
	}
	if got != p.Root || got != root2 {
		t.Fatal("recomputed root does not match the tree's")
	}

	// Proof restrictions.
	if _, err := s.Scan("employees", nil, nil, 0, true); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("proof without filter: %v", err)
	}
	if _, err := s.Scan("employees", f, nil, 2, true); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("proof with limit: %v", err)
	}
	if _, err := s.Scan("employees", &proto.Filter{Col: "note", Op: proto.FilterEq, Lo: []byte("n1")}, nil, 0, true); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("proof on unindexed column: %v", err)
	}
}

// TestProofAtEdges verifies the proof of every run shape against the root,
// and holds each proof's bytes to the ones recorded when the Merkle cache kept
// its own copy of every index key and digest: rebuilding the fences from the
// rows must not change a byte.
func TestProofAtEdges(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	for i, sal := range []uint64{10, 20, 30} {
		if err := s.Insert("employees", []proto.Row{row(uint64(i+1), sal)}); err != nil {
			t.Fatal(err)
		}
	}
	root, _, err := proofRoot(s)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(op proto.FilterOp, lo, hi uint64, wantRows int, golden string) {
		t.Helper()
		f := &proto.Filter{Col: "salary#o", Op: op, Lo: oppCell(lo), Hi: oppCell(hi)}
		if op == proto.FilterEq {
			f.Hi = nil
		}
		resp, err := s.Scan("employees", f, nil, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Rows) != wantRows {
			t.Fatalf("[%d,%d]: %d rows, want %d", lo, hi, len(resp.Rows), wantRows)
		}
		if got := hex.EncodeToString(resp.Proof); got != golden {
			t.Errorf("%v [%d,%d]: proof bytes\n%s\nwant\n%s", op, lo, hi, got, golden)
		}
		p, err := merkle.UnmarshalRangeProof(resp.Proof)
		if err != nil {
			t.Fatal(err)
		}
		var run []merkle.Hash
		if p.LeftFence != nil {
			run = append(run, merkle.LeafHash(p.LeftFence.Key, p.LeftFence.RowDigest))
		}
		for _, r := range resp.Rows {
			run = append(run, merkle.LeafHash(ProofLeaf(nil, r.Cells[0], r)))
		}
		if p.RightFence != nil {
			run = append(run, merkle.LeafHash(p.RightFence.Key, p.RightFence.RowDigest))
		}
		got, err := merkle.VerifyRange(int(p.N), int(p.Start), run, p.Hashes)
		if err != nil {
			t.Fatalf("[%d,%d]: %v", lo, hi, err)
		}
		if got != root || p.Root != root {
			t.Fatalf("[%d,%d]: root mismatch", lo, hi)
		}
	}
	// Every proof opens with the leaf count and the root.
	const golden = "0000000000000003d608aadec5273b7c606a2106488c75bd34710253d7bf6f58855f01e2486866c1"
	range_, eq := proto.FilterRange, proto.FilterEq
	// Whole table, no fences.
	verify(range_, 0, 100, 3, golden+"0000000000000000000000000000")
	// Empty result at left edge.
	verify(range_, 0, 5, 0, golden+"00000000000000000001000000150000000000000000000000000a00000000000000010000002054f5046a16b74c4016f3a37b19f004d2e4f058437547c0ecb4208107f288d988000000024a5c8e5d38505776dd059f8edeeccfae15e476dc23671b6ec417bebdd542dce3300ea87937573fb19d4fdc149556501b3f8a4aa83d30a8a53f8b28c6323507b1")
	// Empty result at right edge.
	verify(range_, 50, 99, 0, golden+"000000000000000201000000150000000000000000000000001e000000000000000300000020c8a3d187c9cad93dcb40ece0f5a1e3754339e8c5d9e9b960e123bb951b8a08d10000000001565562f8f33396b79ceda63f5624db9c79298c60aeebda132c1a2ed210547dbc")
	// Empty result in the middle, two fences.
	verify(range_, 15, 17, 0, golden+"000000000000000001000000150000000000000000000000000a00000000000000010000002054f5046a16b74c4016f3a37b19f004d2e4f058437547c0ecb4208107f288d98801000000150000000000000000000000001400000000000000020000002025d9aeb9d0ba5c599c3b15b90ef5fc3a91cf41683fc616dfd0ca2042a7f4ba3200000001300ea87937573fb19d4fdc149556501b3f8a4aa83d30a8a53f8b28c6323507b1")
	// Leftmost row.
	verify(range_, 10, 10, 1, golden+"00000000000000000001000000150000000000000000000000001400000000000000020000002025d9aeb9d0ba5c599c3b15b90ef5fc3a91cf41683fc616dfd0ca2042a7f4ba3200000001300ea87937573fb19d4fdc149556501b3f8a4aa83d30a8a53f8b28c6323507b1")
	// Rightmost row.
	verify(range_, 30, 30, 1, golden+"000000000000000101000000150000000000000000000000001400000000000000020000002025d9aeb9d0ba5c599c3b15b90ef5fc3a91cf41683fc616dfd0ca2042a7f4ba32000000000164fcc649b21efa8bf635f14f30e101fc04e04207aa15ecd16b31bdc645e581ea")
	// A run with its left fence.
	verify(range_, 15, 30, 2, golden+"000000000000000001000000150000000000000000000000000a00000000000000010000002054f5046a16b74c4016f3a37b19f004d2e4f058437547c0ecb4208107f288d9880000000000")
	// Equality, both fences.
	verify(eq, 20, 20, 1, golden+"000000000000000001000000150000000000000000000000000a00000000000000010000002054f5046a16b74c4016f3a37b19f004d2e4f058437547c0ecb4208107f288d98801000000150000000000000000000000001e000000000000000300000020c8a3d187c9cad93dcb40ece0f5a1e3754339e8c5d9e9b960e123bb951b8a08d100000000")
	// Equality matching nothing.
	verify(eq, 25, 25, 0, golden+"000000000000000101000000150000000000000000000000001400000000000000020000002025d9aeb9d0ba5c599c3b15b90ef5fc3a91cf41683fc616dfd0ca2042a7f4ba3201000000150000000000000000000000001e000000000000000300000020c8a3d187c9cad93dcb40ece0f5a1e3754339e8c5d9e9b960e123bb951b8a08d10000000164fcc649b21efa8bf635f14f30e101fc04e04207aa15ecd16b31bdc645e581ea")
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s)
	for i := uint64(1); i <= 10; i++ {
		if err := s.Insert("employees", []proto.Row{row(i, i*5)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Delete("employees", []uint64{3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Update("employees", []proto.Row{row(4, 999)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n, err := s2.RowCount("employees")
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("rows after reopen = %d, want 9", n)
	}
	resp, err := s2.Scan("employees", &proto.Filter{
		Col: "salary#o", Op: proto.FilterEq, Lo: oppCell(999),
	}, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0].ID != 4 {
		t.Fatal("update lost across reopen")
	}
}

func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s)
	for i := uint64(1); i <= 20; i++ {
		if err := s.Insert("employees", []proto.Row{row(i, i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations land in the WAL suffix.
	if err := s.Insert("employees", []proto.Row{row(21, 21)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("employees", []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n, err := s2.RowCount("employees")
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("rows = %d, want 20", n)
	}
	// Only the two post-checkpoint records should have been replayed.
	if got := s2.RecoveredRecords(); got != 2 {
		t.Fatalf("replayed %d WAL records, want 2", got)
	}
	// Memory store Checkpoint is a no-op.
	mem := memStore(t)
	if err := mem.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s)
	if err := s.Insert("employees", []proto.Row{row(1, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the manifest payload: the checksum must catch it.
	path := s.manifestPath()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

func TestOpenRejectsTruncatedManifest(t *testing.T) {
	dir := t.TempDir()
	// A manifest with a valid checksum but a truncated field stream.
	bogus := []byte{0, 0, 0, manifestVersion} // version only, nothing after
	if err := wal.SaveSnapshot(filepath.Join(dir, "store.manifest"), bogus); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("got %v, want ErrBadRequest", err)
	}
}

// Differential test: random mutations against a plain map oracle, checked
// through scans, with one reopen in the middle.
func TestRandomizedWithOracleAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s)
	oracle := make(map[uint64]uint64) // id -> salary
	rng := mrand.New(mrand.NewSource(99))
	nextID := uint64(1)

	mutate := func(steps int) {
		for i := 0; i < steps; i++ {
			switch rng.Intn(3) {
			case 0: // insert
				id := nextID
				nextID++
				sal := uint64(rng.Intn(1000))
				if err := s.Insert("employees", []proto.Row{row(id, sal)}); err != nil {
					t.Fatal(err)
				}
				oracle[id] = sal
			case 1: // delete random existing
				for id := range oracle {
					if _, err := s.Delete("employees", []uint64{id}); err != nil {
						t.Fatal(err)
					}
					delete(oracle, id)
					break
				}
			case 2: // update random existing
				for id := range oracle {
					sal := uint64(rng.Intn(1000))
					if err := s.Update("employees", []proto.Row{row(id, sal)}); err != nil {
						t.Fatal(err)
					}
					oracle[id] = sal
					break
				}
			}
		}
	}
	check := func() {
		t.Helper()
		lo, hi := uint64(200), uint64(700)
		resp, err := s.Scan("employees", &proto.Filter{
			Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(lo), Hi: oppCell(hi),
		}, nil, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for id, sal := range oracle {
			if sal >= lo && sal <= hi {
				want = append(want, id)
			}
		}
		if len(resp.Rows) != len(want) {
			t.Fatalf("scan matched %d rows, oracle %d", len(resp.Rows), len(want))
		}
		got := make([]uint64, 0, len(resp.Rows))
		for _, r := range resp.Rows {
			got = append(got, r.ID)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("row set mismatch: got %v want %v", got, want)
			}
		}
		n, err := s.RowCount("employees")
		if err != nil {
			t.Fatal(err)
		}
		if n != len(oracle) {
			t.Fatalf("RowCount %d, oracle %d", n, len(oracle))
		}
	}

	mutate(400)
	check()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mutate(200)
	check()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check()
	mutate(100)
	check()
}

func BenchmarkInsertBatch100(b *testing.B) {
	s := memStore(b)
	if err := s.CreateTable(testSpec()); err != nil {
		b.Fatal(err)
	}
	id := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := make([]proto.Row, 100)
		for j := range rows {
			rows[j] = row(id, id%100000)
			id++
		}
		if err := s.Insert("employees", rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexedRangeScan(b *testing.B) {
	s := memStore(b)
	if err := s.CreateTable(testSpec()); err != nil {
		b.Fatal(err)
	}
	for i := uint64(1); i <= 50_000; i++ {
		if err := s.Insert("employees", []proto.Row{row(i, i)}); err != nil {
			b.Fatal(err)
		}
	}
	f := &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(20_000), Hi: oppCell(20_500)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Scan("employees", f, nil, 0, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Rows) != 501 {
			b.Fatalf("matched %d", len(resp.Rows))
		}
	}
}

// BenchmarkPointScan times what the repository benchmark's
// store.point_scan_us probe times: Scan of one row by an equality filter on
// an indexed column, here of a 100 k-row table, a different row each time.
// Most of it is two page lookups, the index walk's and the row's.
func BenchmarkPointScan(b *testing.B) {
	const n = 100_000
	s := memStore(b)
	if err := s.CreateTable(testSpec()); err != nil {
		b.Fatal(err)
	}
	for at := uint64(1); at <= n; at += 2_000 {
		rows := make([]proto.Row, 0, 2_000)
		for id := at; id < at+2_000; id++ {
			rows = append(rows, row(id, id))
		}
		if err := s.Insert("employees", rows); err != nil {
			b.Fatal(err)
		}
	}
	f := &proto.Filter{Col: "salary#o", Op: proto.FilterEq}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Lo = oppCell(uint64(i*7919%n + 1))
		resp, err := s.Scan("employees", f, nil, 0, false)
		if err != nil || len(resp.Rows) != 1 {
			b.Fatalf("%v rows, %v", resp, err)
		}
	}
}

// TestBoundWidths: a filter bound, an aggregate or group filter bound, a
// proof range or a join key of the wrong width must be an error naming the
// column and both widths — against fixed-width cell||rowID keys it would
// otherwise select the wrong rows in silence. Plain (variable) columns take
// bounds of any length.
func TestBoundWidths(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	wide := proto.TableSpec{Name: "names", Columns: []proto.ColumnSpec{
		{Name: "name#o", Kind: proto.KindOPP, Indexed: true, Width: oppCellSize + 1},
		{Name: "tag", Kind: proto.KindPlain},
	}}
	// An index takes keys of one width, so a variable-width column has none.
	wide.Columns[1].Indexed = true
	if err := s.CreateTable(wide); !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), `"tag"`) {
		t.Fatalf("an indexed plain column: %v, want ErrBadRequest naming it", err)
	}
	wide.Columns[1].Indexed = false
	if err := s.CreateTable(wide); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ {
		if err := s.Insert("employees", []proto.Row{row(i, i*10)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Insert("names", []proto.Row{{ID: i, Cells: [][]byte{make([]byte, oppCellSize+1), []byte("n")}}}); err != nil {
			t.Fatal(err)
		}
	}
	pad := func(n int) []byte { return make([]byte, n) }
	eq := func(lo []byte) *proto.Filter { return &proto.Filter{Col: "salary#o", Op: proto.FilterEq, Lo: lo} }
	rng := func(lo, hi []byte) *proto.Filter {
		return &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: lo, Hi: hi}
	}
	for _, tc := range []struct {
		name string
		f    *proto.Filter
		ok   bool
	}{
		{"eq at the column's width", eq(oppCell(20)), true},
		{"range at the column's width", rng(oppCell(0), oppCell(99)), true},
		{"eq with an old 24-byte bound", eq(pad(24)), false},
		{"eq with another domain's bound", eq(pad(oppCellSize + 1)), false},
		{"eq with a short bound", eq(pad(oppCellSize - 1)), false},
		{"eq with no bound", eq(nil), false},
		{"range with a wide lo", rng(pad(24), oppCell(99)), false},
		{"range with a wide hi", rng(oppCell(0), pad(24)), false},
		{"range with no hi", rng(oppCell(0), nil), false},
		{"plain column, any length", &proto.Filter{Col: "note", Op: proto.FilterRange, Lo: []byte("a"), Hi: []byte("zzzz")}, true},
	} {
		reads := map[string]func() error{
			"scan":   func() error { _, err := s.Scan("employees", tc.f, nil, 0, false); return err },
			"cursor": func() error { _, err := s.OpenCursor("employees", tc.f, nil, 0, 0); return err },
			"aggregate": func() error {
				_, err := s.Aggregate(&proto.AggregateRequest{Table: "employees", Op: proto.AggSum, ValueCol: "salary#f", Filter: tc.f})
				return err
			},
			"grouped": func() error {
				_, err := s.Aggregate(&proto.AggregateRequest{Table: "employees", Op: proto.AggCount, GroupCol: "salary#o", Filter: tc.f})
				return err
			},
			"join": func() error {
				_, err := s.OpenJoin(&proto.JoinRequest{LeftTable: "employees", LeftCol: "salary#o",
					RightTable: "employees", RightCol: "salary#o", Filter: tc.f}, 0)
				return err
			},
		}
		if tc.f.Col == "salary#o" {
			reads["proof"] = func() error { _, err := s.Scan("employees", tc.f, nil, 0, true); return err }
		}
		for read, run := range reads {
			err := run()
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s, %s: %v", tc.name, read, err)
			case !tc.ok && !errors.Is(err, ErrBadRequest):
				t.Errorf("%s, %s: %v, want ErrBadRequest", tc.name, read, err)
			case !tc.ok && !(strings.Contains(err.Error(), `"salary#o"`) && strings.Contains(err.Error(), fmt.Sprint(oppCellSize))):
				t.Errorf("%s, %s: %q names neither the column nor its width", tc.name, read, err)
			}
		}
	}
	// Join keys of different fixed widths are not one domain, and plain
	// (variable) keys have no index for the join to seek.
	for _, tc := range []struct {
		name           string
		lt, lc, rt, rc string
		ok             bool
	}{
		{"same width", "employees", "salary#o", "employees", "salary#o", true},
		{"both variable", "employees", "note", "names", "tag", false},
		{"13 against 14", "employees", "salary#o", "names", "name#o", false},
		{"14 against 13", "names", "name#o", "employees", "salary#o", false},
		{"share against plain", "employees", "salary#o", "names", "tag", false},
	} {
		_, err := s.OpenJoin(&proto.JoinRequest{LeftTable: tc.lt, LeftCol: tc.lc, RightTable: tc.rt, RightCol: tc.rc}, 0)
		if tc.ok && err != nil || !tc.ok && !errors.Is(err, ErrBadRequest) {
			t.Errorf("join %s: %v, want ok = %v", tc.name, err, tc.ok)
		}
		if !tc.ok && err != nil && !(strings.Contains(err.Error(), tc.lc) && strings.Contains(err.Error(), tc.rc)) {
			t.Errorf("join %s: %q does not name both columns", tc.name, err)
		}
	}
}

// TestUpdateLeavesUnchangedIndexEntries: an UPDATE moves the index entry of
// each indexed cell it changes and touches no other. Shares are
// deterministic, so an unchanged column's cell is byte-identical and its
// entry already right. To see that such an entry is not deleted and put
// back, the test first takes it out of its tree behind the store's back: an
// UPDATE that rewrote it would restore it.
func TestUpdateLeavesUnchangedIndexEntries(t *testing.T) {
	s := memStore(t)
	spec := proto.TableSpec{Name: "emp", Columns: []proto.ColumnSpec{
		{Name: "salary#o", Kind: proto.KindOPP, Indexed: true, Width: oppCellSize},
		{Name: "dept#o", Kind: proto.KindOPP, Indexed: true, Width: oppCellSize},
		{Name: "note", Kind: proto.KindPlain},
	}}
	if err := s.CreateTable(spec); err != nil {
		t.Fatal(err)
	}
	emp := func(id, salary, dept uint64, note string) proto.Row {
		return proto.Row{ID: id, Cells: [][]byte{oppCell(salary), oppCell(dept), []byte(note)}}
	}
	var rows []proto.Row
	for id := uint64(1); id <= 100; id++ {
		rows = append(rows, emp(id, 10*id, id%4, "a"))
	}
	if err := s.Insert("emp", rows); err != nil {
		t.Fatal(err)
	}
	// A read through a column's index builds its tree.
	for _, col := range []string{"salary#o", "dept#o"} {
		if _, err := s.Scan("emp", &proto.Filter{Col: col, Op: proto.FilterEq, Lo: oppCell(10)}, nil, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	salary, dept := s.tables["emp"].cols[0].index, s.tables["emp"].cols[1].index

	salary.Delete(oppCell(70), 7)
	if err := s.Update("emp", []proto.Row{emp(7, 70, 1, "a")}); err != nil { // dept 3 → 1
		t.Fatal(err)
	}
	if !dept.Has(oppCell(1), 7) || dept.Has(oppCell(3), 7) || dept.Len() != 100 {
		t.Fatal("the UPDATE did not move the changed cell's entry")
	}
	if salary.Has(oppCell(70), 7) || salary.Len() != 99 {
		t.Fatal("the UPDATE rewrote the entry of the unchanged salary cell")
	}

	dept.Delete(oppCell(1), 7)
	if err := s.Update("emp", []proto.Row{emp(7, 75, 1, "b")}); err != nil { // salary and note
		t.Fatal(err)
	}
	if dept.Has(oppCell(1), 7) || !salary.Has(oppCell(75), 7) || salary.Has(oppCell(70), 7) {
		t.Fatal("an UPDATE of salary and note touched the dept index or missed the salary one")
	}
	dept.Insert(oppCell(1), 7)

	if _, err := s.Delete("emp", []uint64{7}); err != nil {
		t.Fatal(err)
	}
	if salary.Len() != 99 || dept.Len() != 99 || salary.Has(oppCell(75), 7) || dept.Has(oppCell(1), 7) {
		t.Fatal("a DELETE left index entries behind")
	}
}

// TestValidateAllocs: a one-row, one-op mutation — every autocommit INSERT,
// UPDATE and DELETE of one row — allocates only its plan in validate, not
// the overlay of ids a batch has touched.
func TestValidateAllocs(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	if err := s.Insert("employees", []proto.Row{row(1, 10)}); err != nil {
		t.Fatal(err)
	}
	for _, msg := range []proto.Message{
		&proto.InsertRequest{Table: "employees", Rows: []proto.Row{row(2, 20)}},
		&proto.UpdateRequest{Table: "employees", Rows: []proto.Row{row(1, 11)}},
		&proto.DeleteRequest{Table: "employees", RowIDs: []uint64{1}},
	} {
		s.mu.Lock()
		allocs := testing.AllocsPerRun(100, func() {
			if plan, err := s.validate(msg); err != nil || len(plan) != 1 {
				t.Fatalf("%T: plan %v, %v", msg, plan, err)
			}
		})
		s.mu.Unlock()
		if allocs > 1 {
			t.Errorf("%T: validate allocates %.0f objects, want at most 1", msg, allocs)
		}
	}
}
