package store

import (
	"bytes"
	"errors"
	"testing"

	"sssdb/internal/field"
	"sssdb/internal/proto"
)

// groupedSpec has a group column (dept#o) beside the usual salary pair.
func groupedSpec() proto.TableSpec {
	return proto.TableSpec{
		Name: "emp",
		Columns: []proto.ColumnSpec{
			{Name: "dept#o", Kind: proto.KindOPP, Indexed: true, Width: oppCellSize},
			{Name: "salary#o", Kind: proto.KindOPP, Indexed: true, Width: oppCellSize},
			{Name: "salary#f", Kind: proto.KindField},
		},
	}
}

func groupedRow(id, dept, salary uint64) proto.Row {
	return proto.Row{ID: id, Cells: [][]byte{oppCell(dept), oppCell(salary), fieldCell(salary)}}
}

func TestAggregateGrouped(t *testing.T) {
	s := memStore(t)
	if err := s.CreateTable(groupedSpec()); err != nil {
		t.Fatal(err)
	}
	rows := []proto.Row{
		groupedRow(1, 10, 100), groupedRow(2, 10, 200),
		groupedRow(3, 20, 50),
		groupedRow(4, 30, 7), groupedRow(5, 30, 8), groupedRow(6, 30, 9),
	}
	if err := s.Insert("emp", rows); err != nil {
		t.Fatal(err)
	}
	res, err := s.Aggregate(&proto.AggregateRequest{Table: "emp", Op: proto.AggSum, ValueCol: "salary#f", GroupCol: "dept#o"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 || res.Picks {
		t.Fatalf("groups = %+v", res)
	}
	// Groups sorted by key bytes (= dept order).
	wantCounts := []uint64{2, 1, 3}
	wantSums := []uint64{300, 50, 24}
	for i, g := range res.Groups {
		if g.Count != wantCounts[i] {
			t.Fatalf("group %d count %d, want %d", i, g.Count, wantCounts[i])
		}
		if field.New(g.Sum).Uint64() != wantSums[i] {
			t.Fatalf("group %d sum %d, want %d", i, g.Sum, wantSums[i])
		}
		if i > 0 && bytes.Compare(res.Groups[i-1].Key, g.Key) >= 0 {
			t.Fatal("groups not in key order")
		}
	}
	// Every bucket picks its own MIN, MAX and lower-median row, by order cell
	// then row id, and carries that row's value share.
	for _, c := range []struct {
		op    proto.AggOp
		picks []uint64
	}{{proto.AggMin, []uint64{1, 3, 4}}, {proto.AggMax, []uint64{2, 3, 6}}, {proto.AggMedian, []uint64{1, 3, 5}}} {
		res, err := s.Aggregate(&proto.AggregateRequest{Table: "emp", Op: c.op, OrderCol: "salary#o", ValueCol: "salary#f", GroupCol: "dept#o"})
		if err != nil || !res.Picks || len(res.Groups) != 3 {
			t.Fatalf("%s: %+v, %v", c.op, res, err)
		}
		for i, g := range res.Groups {
			if want := rows[c.picks[i]-1]; g.Count != wantCounts[i] || g.Pick != want.ID || !bytes.Equal(fieldCell(g.Sum), want.Cells[2]) {
				t.Errorf("%s bucket %d = %+v, want row %d", c.op, i, g, want.ID)
			}
		}
	}
	// With a filter, through the positional form the benchmark's probe calls.
	res, err = s.AggregateGrouped("emp", proto.AggCount, "", "dept#o", &proto.Filter{
		Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(50), Hi: oppCell(200),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 || res.Groups[0].Count != 2 || res.Groups[1].Count != 1 {
		t.Fatalf("filtered groups: %+v", res.Groups)
	}
}

func TestAggregateGroupedErrors(t *testing.T) {
	s := memStore(t)
	if err := s.CreateTable(groupedSpec()); err != nil {
		t.Fatal(err)
	}
	sum := func(table, valueCol, groupCol string) (*proto.GroupResult, error) {
		return s.Aggregate(&proto.AggregateRequest{Table: table, Op: proto.AggSum, ValueCol: valueCol, GroupCol: groupCol})
	}
	if _, err := sum("nope", "salary#f", "dept#o"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("missing table: %v", err)
	}
	if _, err := sum("emp", "salary#f", "zz"); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("bad group col: %v", err)
	}
	if _, err := sum("emp", "salary#f", "salary#f"); !errors.Is(err, ErrBadRequest) {
		t.Errorf("field group col: %v", err)
	}
	if _, err := sum("emp", "zz", "dept#o"); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("bad value col: %v", err)
	}
	if _, err := sum("emp", "dept#o", "dept#o"); !errors.Is(err, ErrBadRequest) {
		t.Errorf("opp value col: %v", err)
	}
	// Empty table: zero groups.
	res, err := sum("emp", "salary#f", "dept#o")
	if err != nil || len(res.Groups) != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
}
