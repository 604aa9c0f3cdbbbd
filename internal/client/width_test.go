package client

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"strings"
	"testing"
	"unsafe"

	"sssdb/internal/proto"
)

// TestProviderSpecWidths: the width of an order-preserving column reaches
// the provider as data in its table spec, derived from the column's domain
// scheme — ⌈(domain bits + 32 slot bits + 10 bits per degree + 1) / 8⌉ —
// and every cell the provider then stores, every filter bound it is sent and
// every group key it returns has exactly that width.
func TestProviderSpecWidths(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		col  string
		lit  string
		want int
	}{
		{"INT", Options{}, "INT", "7", 13},
		{"DECIMAL", Options{}, "DECIMAL(2)", "7.25", 13},
		{"VARCHAR(8)", Options{}, "VARCHAR(8)", "'Bob'", 14},
		{"VARCHAR(1)", Options{}, "VARCHAR(1)", "'b'", 9},
		{"IntBits 61, degree 1", Options{IntBits: 61, OPPDegree: 1}, "INT", "7", 13},
		{"IntBits 61, degree 8", Options{IntBits: 61, OPPDegree: 8}, "INT", "7", 22},
	} {
		f := newFleet(t, 3, 2, tc.opts)
		f.mustExec(t, `CREATE TABLE w (v `+tc.col+`, note BLOB)`)
		f.mustExec(t, `INSERT INTO w VALUES (`+tc.lit+`, 'x'), (`+tc.lit+`, 'y')`)
		for p, st := range f.stores {
			specs := st.ListTables()
			if len(specs) != 1 || len(specs[0].Columns) != 3 {
				t.Fatalf("%s: provider %d holds %+v", tc.name, p, specs)
			}
			for _, col := range specs[0].Columns {
				if want := map[bool]int{true: tc.want}[col.Kind == proto.KindOPP]; int(col.Width) != want {
					t.Errorf("%s: provider %d column %q (%s) declares width %d, want %d", tc.name, p, col.Name, col.Kind, col.Width, want)
				}
			}
			resp, err := st.Scan("w", nil, []string{"v#o"}, 0, false)
			if err != nil || len(resp.Rows) != 2 {
				t.Fatalf("%s: provider %d scan: %v, %v", tc.name, p, resp, err)
			}
			for _, row := range resp.Rows {
				if len(row.Cells[0]) != tc.want {
					t.Errorf("%s: provider %d stores a %d-byte share, want %d", tc.name, p, len(row.Cells[0]), tc.want)
				}
			}
		}
		// Filter, group key and verified reads all cross the width.
		for _, q := range []string{
			`SELECT COUNT(*) FROM w WHERE v = ` + tc.lit,
			`SELECT v, COUNT(*) FROM w GROUP BY v`,
			`SELECT v FROM w WHERE v = ` + tc.lit + ` VERIFIED`,
		} {
			res := f.mustExec(t, q)
			if len(res.Rows) == 0 || strings.HasPrefix(q, "SELECT COUNT") && res.Rows[0][0].I != 2 {
				t.Errorf("%s: %s answered %v", tc.name, q, res.Rows)
			}
		}
	}
}

// TestEncodeRowAllocations pins the load path's per-row cost on the emp
// shape: the row headers, one cell index and one share slab per provider —
// N + 2 allocations — and each provider's cells contiguous in its slab, the
// 85 bytes a stored emp row's shares take. (The keyed hashes opp spends on a
// value it has not split before are its own; the run repeats one row.)
func TestEncodeRowAllocations(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE emp (id INT, name VARCHAR(8), salary INT, dept INT)`)
	meta, err := f.client.cat.table("emp")
	if err != nil {
		t.Fatal(err)
	}
	e := f.client.groups[0]
	enc := e.newRowEncoder(bufio.NewReader(rand.Reader))
	vals := []Value{IntValue(7), StringValue("Alice"), IntValue(52000), IntValue(3)}
	rows, err := e.encodeRow(meta, 9, vals, enc)
	if err != nil {
		t.Fatal(err)
	}
	for p, row := range rows {
		slab := bytes.Join(row.Cells, nil)
		if row.ID != 9 || len(row.Cells) != 8 || len(slab) != 85 || cap(row.Cells[0][:1]) != 13 {
			t.Fatalf("provider %d: id %d, %d cells, %d share bytes, first cell cap %d", p, row.ID, len(row.Cells), len(slab), cap(row.Cells[0][:1]))
		}
		for j := 1; j < len(row.Cells); j++ {
			if unsafe.Add(unsafe.Pointer(&row.Cells[j-1][0]), len(row.Cells[j-1])) != unsafe.Pointer(&row.Cells[j][0]) {
				t.Errorf("provider %d: cell %d does not follow cell %d in one slab", p, j, j-1)
			}
		}
	}
	if got, want := testing.AllocsPerRun(200, func() {
		if _, err := e.encodeRow(meta, 9, vals, enc); err != nil {
			t.Fatal(err)
		}
	}), float64(len(rows)+2); got > want {
		t.Errorf("encodeRow allocates %v times a row, want <= %v", got, want)
	}
}
