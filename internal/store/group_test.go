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
	res, err := s.AggregateGrouped("emp", proto.AggSum, "salary#f", "dept#o", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %d", len(res.Groups))
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
	// With a filter.
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
	if _, err := s.AggregateGrouped("nope", proto.AggSum, "salary#f", "dept#o", nil); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("missing table: %v", err)
	}
	if _, err := s.AggregateGrouped("emp", proto.AggMedian, "salary#f", "dept#o", nil); !errors.Is(err, ErrBadRequest) {
		t.Errorf("median grouped: %v", err)
	}
	if _, err := s.AggregateGrouped("emp", proto.AggSum, "salary#f", "zz", nil); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("bad group col: %v", err)
	}
	if _, err := s.AggregateGrouped("emp", proto.AggSum, "salary#f", "salary#f", nil); !errors.Is(err, ErrBadRequest) {
		t.Errorf("field group col: %v", err)
	}
	if _, err := s.AggregateGrouped("emp", proto.AggSum, "zz", "dept#o", nil); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("bad value col: %v", err)
	}
	if _, err := s.AggregateGrouped("emp", proto.AggSum, "dept#o", "dept#o", nil); !errors.Is(err, ErrBadRequest) {
		t.Errorf("opp value col: %v", err)
	}
	// Empty table: zero groups.
	res, err := s.AggregateGrouped("emp", proto.AggSum, "salary#f", "dept#o", nil)
	if err != nil || len(res.Groups) != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
}
