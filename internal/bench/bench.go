// Package bench regenerates every quantitative artifact of the paper: one
// runner per experiment in DESIGN.md's index (E1–E15) plus the ablations.
// Each runner returns a Table — the rows/series the paper reports — that
// cmd/ssbench prints and the test suite asserts shape invariants on
// (who wins, by roughly what factor, where crossovers fall).
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"sssdb/internal/client"
	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

// Table is one regenerated experiment artifact.
type Table struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "E4").
	ID string
	// Title names the artifact.
	Title string
	// PaperClaim summarizes what the paper asserts.
	PaperClaim string
	// Header and Rows carry the regenerated series.
	Header []string
	Rows   [][]string
	// Notes records measured-vs-paper commentary.
	Notes []string
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.PaperClaim != "" {
		fmt.Fprintf(w, "paper: %s\n", t.PaperClaim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale selects experiment sizes. Quick keeps `go test` fast; Full is the
// cmd/ssbench -full configuration.
type Scale struct {
	Full bool
}

// pick returns quick or full depending on the scale.
func (s Scale) pick(quick, full int) int {
	if s.Full {
		return full
	}
	return quick
}

// fleet is an instrumented in-process deployment for experiments.
type fleet struct {
	client *client.Client
	faults []*transport.FaultyConn
}

func newFleet(n, k int, opts client.Options) (*fleet, error) {
	f := &fleet{}
	var conns []transport.Conn
	for i := 0; i < n; i++ {
		st, err := store.Open("")
		if err != nil {
			return nil, err
		}
		fc := transport.NewFaulty(transport.NewLocal(server.New(st)))
		f.faults = append(f.faults, fc)
		conns = append(conns, fc)
	}
	opts.K = k
	if len(opts.MasterKey) == 0 {
		opts.MasterKey = []byte("bench master key")
	}
	c, err := client.New(conns, opts)
	if err != nil {
		return nil, err
	}
	f.client = c
	return f, nil
}

func (f *fleet) Close() {
	if f.client != nil {
		f.client.Close()
	}
}

// bytesDelta measures traffic across a function call.
func (f *fleet) bytesDelta(fn func() error) (sent, received uint64, err error) {
	before := f.client.Stats()
	err = fn()
	after := f.client.Stats()
	return after.BytesSent - before.BytesSent, after.BytesReceived - before.BytesReceived, err
}

// timeIt runs fn and returns its wall-clock duration.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// mustLoad bulk-inserts rows through the client.
func (f *fleet) load(table string, rows [][]client.Value) error {
	const batch = 500
	for off := 0; off < len(rows); off += batch {
		end := off + batch
		if end > len(rows) {
			end = len(rows)
		}
		if _, err := f.client.InsertValues(table, rows[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// Runner is one experiment entry point.
type Runner struct {
	ID  string
	Fn  func(Scale) (*Table, error)
	Doc string
}

// All lists every experiment and ablation in order.
func All() []Runner {
	return []Runner{
		{"E1", RunE1, "Figure 1 worked example"},
		{"E2", RunE2, "share vs encrypt compute cost"},
		{"E3", RunE3, "intersection cost anecdote"},
		{"E4", RunE4, "PIR communication vs N"},
		{"E5", RunE5, "cPIR vs trivial transfer"},
		{"E6", RunE6, "exact-match query cost"},
		{"E7", RunE7, "range query precision and bytes"},
		{"E8", RunE8, "provider-side vs client-side aggregation"},
		{"E9", RunE9, "provider-side vs client-side join"},
		{"E10", RunE10, "fault tolerance under provider crashes"},
		{"E11", RunE11, "order-preserving construction security"},
		{"E12", RunE12, "non-numeric data encoding"},
		{"E13", RunE13, "eager vs lazy updates"},
		{"E14", RunE14, "verification overhead and detection"},
		{"E15", RunE15, "private/public data mash-up"},
		{"A1", RunA1, "ablation: GF(2^61-1) vs big-int reconstruction"},
		{"A2", RunA2, "ablation: dual shares vs OPP-only storage"},
		{"A3", RunA3, "ablation: fixed-width share keys vs big.Int"},
		{"A4", RunA4, "ablation: OPP polynomial degree"},
		{"S1", RunS1, "supplementary: latency/bytes vs table size"},
	}
}

// RunAll executes every experiment at the given scale, printing tables.
func RunAll(w io.Writer, scale Scale) error {
	for _, r := range All() {
		table, err := r.Fn(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		table.Fprint(w)
	}
	return nil
}

// Formatting helpers.

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d >= time.Microsecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

func fmtRatio(a, b float64) string {
	if b == 0 {
		return "∞"
	}
	return fmt.Sprintf("%.1fx", a/b)
}
