package proto

import (
	"fmt"
	"testing"
)

// TestMergeRowsChunk verifies stream reassembly semantics: rows append in
// order, columns come from the first chunk, the proof from the last.
func TestMergeRowsChunk(t *testing.T) {
	var dst *RowsResponse
	for i := 0; i < 3; i++ {
		chunk := &RowsResponse{
			Columns: []string{"a", "b"},
			Rows:    []Row{{ID: uint64(2 * i)}, {ID: uint64(2*i + 1)}},
		}
		if i == 2 {
			chunk.Proof = []byte("proof")
		}
		dst = MergeRowsChunk(dst, chunk)
	}
	if len(dst.Rows) != 6 {
		t.Fatalf("merged %d rows", len(dst.Rows))
	}
	for i, r := range dst.Rows {
		if r.ID != uint64(i) {
			t.Fatalf("row %d has id %d", i, r.ID)
		}
	}
	if fmt.Sprint(dst.Columns) != "[a b]" || string(dst.Proof) != "proof" {
		t.Fatalf("columns %v proof %q", dst.Columns, dst.Proof)
	}
}

// TestMergeRowsChunkEdgeCases pins the reassembly corners the streaming
// protocol can legally produce.
func TestMergeRowsChunkEdgeCases(t *testing.T) {
	t.Run("proof on a non-final chunk survives", func(t *testing.T) {
		// A v1-style sender may attach the proof early; trailing proof-less
		// chunks must not erase it.
		dst := MergeRowsChunk(nil, &RowsResponse{
			Columns: []string{"a"},
			Rows:    []Row{{ID: 1}},
			Proof:   []byte("early"),
		})
		dst = MergeRowsChunk(dst, &RowsResponse{Rows: []Row{{ID: 2}}})
		if string(dst.Proof) != "early" {
			t.Fatalf("proof %q, want %q", dst.Proof, "early")
		}
		// A later proof-bearing chunk (the normal final chunk) wins.
		dst = MergeRowsChunk(dst, &RowsResponse{Proof: []byte("final")})
		if string(dst.Proof) != "final" {
			t.Fatalf("proof %q, want %q", dst.Proof, "final")
		}
	})
	t.Run("empty first chunk carrying only columns", func(t *testing.T) {
		// An empty scan streams exactly one chunk: the column header and no
		// rows. The merged result must keep the shape.
		dst := MergeRowsChunk(nil, &RowsResponse{Columns: []string{"a", "b"}})
		if len(dst.Rows) != 0 || fmt.Sprint(dst.Columns) != "[a b]" {
			t.Fatalf("rows %d columns %v", len(dst.Rows), dst.Columns)
		}
		// Rows arriving after a header-only chunk still append.
		dst = MergeRowsChunk(dst, &RowsResponse{Rows: []Row{{ID: 7}}})
		if len(dst.Rows) != 1 || dst.Rows[0].ID != 7 {
			t.Fatalf("rows %v", dst.Rows)
		}
	})
	t.Run("columns adopted from the first chunk that has any", func(t *testing.T) {
		dst := MergeRowsChunk(nil, &RowsResponse{})
		dst = MergeRowsChunk(dst, &RowsResponse{Columns: []string{"x"}, Rows: []Row{{ID: 1}}})
		if fmt.Sprint(dst.Columns) != "[x]" {
			t.Fatalf("columns %v", dst.Columns)
		}
		// Divergent later headers are ignored, first wins.
		dst = MergeRowsChunk(dst, &RowsResponse{Columns: []string{"y"}})
		if fmt.Sprint(dst.Columns) != "[x]" {
			t.Fatalf("columns %v after divergent header", dst.Columns)
		}
	})
	t.Run("zero-row responses merge to zero rows", func(t *testing.T) {
		var dst *RowsResponse
		for i := 0; i < 3; i++ {
			dst = MergeRowsChunk(dst, &RowsResponse{Columns: []string{"a"}})
		}
		if len(dst.Rows) != 0 {
			t.Fatalf("rows %d, want 0", len(dst.Rows))
		}
		if dst.Proof != nil {
			t.Fatalf("proof %q, want none", dst.Proof)
		}
	})
}
