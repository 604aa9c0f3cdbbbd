package client

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"sssdb/internal/merkle"
	"sssdb/internal/proto"
	"sssdb/internal/store"
)

// byzantine behaviors a provider can exhibit in the matrix test.
type behavior int

const (
	honest behavior = iota
	crashed
	// corruptShares flips field-share bits. Its proof's row digests catch it;
	// had it re-cut the proof, only robust reconstruction, the vote on each
	// value, would.
	corruptShares
	// withholdsRows drops a matching row and keeps its proof, which catches
	// it. recutsProof is the same liar after a re-cut.
	withholdsRows
	injectsGarbage // returns malformed cells
	wrongType      // answers scans with an unrelated message type
	shortRows      // cuts every row to its first cell
	badHeader      // names a column it was not asked for
	// recutsProof drops the last matching row and cuts a new proof, a tree
	// over the rows it kept. A proof is checked against the root it carries,
	// so this one passes, and only the vote on (leaf count, row ids) catches
	// the liar; the vote needs an honest majority of the providers that
	// answer.
	recutsProof
)

func (b behavior) String() string {
	return [...]string{"honest", "crashed", "corrupt", "withholds", "garbage", "wrongtype", "shortrows", "badheader", "recuts"}[b]
}

func applyBehavior(f *fleet, provider int, b behavior) {
	switch b {
	case honest:
		f.faults[provider].Recover()
		f.faults[provider].SetCorrupter(nil)
	case crashed:
		f.faults[provider].Crash()
	case corruptShares:
		f.faults[provider].SetCorrupter(corruptFieldShares)
	case withholdsRows:
		f.faults[provider].SetCorrupter(func(resp proto.Message) proto.Message {
			if rr, ok := resp.(*proto.RowsResponse); ok && len(rr.Rows) > 0 {
				rr.Rows = rr.Rows[:len(rr.Rows)-1]
			}
			return resp
		})
	case injectsGarbage:
		f.faults[provider].SetCorrupter(func(resp proto.Message) proto.Message {
			if rr, ok := resp.(*proto.RowsResponse); ok {
				for i := range rr.Rows {
					for j := range rr.Rows[i].Cells {
						rr.Rows[i].Cells[j] = []byte{0xde, 0xad}
					}
				}
			}
			return resp
		})
	case wrongType:
		f.faults[provider].SetCorrupter(func(resp proto.Message) proto.Message {
			if _, ok := resp.(*proto.RowsResponse); ok {
				return &proto.OKResponse{Affected: 42}
			}
			return resp
		})
	case shortRows:
		f.faults[provider].SetCorrupter(func(resp proto.Message) proto.Message {
			if rr, ok := resp.(*proto.RowsResponse); ok {
				for i := range rr.Rows {
					rr.Rows[i].Cells = rr.Rows[i].Cells[:1]
				}
			}
			return resp
		})
	case badHeader:
		f.faults[provider].SetCorrupter(func(resp proto.Message) proto.Message {
			if rr, ok := resp.(*proto.RowsResponse); ok && len(rr.Columns) > 0 {
				rr.Columns[0] = "bogus#o"
			}
			return resp
		})
	case recutsProof:
		f.faults[provider].SetCorrupter(func(resp proto.Message) proto.Message {
			rr, ok := resp.(*proto.RowsResponse)
			if !ok || rr.Proof == nil || len(rr.Rows) == 0 {
				return resp
			}
			// The verified reads this liar answers range over salary.
			oppIdx := slices.Index(rr.Columns, "salary"+suffixOPP)
			rr.Rows = rr.Rows[:len(rr.Rows)-1]
			leaves := make([]merkle.Hash, len(rr.Rows))
			for i, row := range rr.Rows {
				leaves[i] = merkle.LeafHash(store.ProofLeaf(nil, row.Cells[oppIdx], row))
			}
			tree := merkle.New(leaves)
			hashes, _ := tree.ProveRange(0, len(leaves)) // the whole tree is a valid range
			rr.Proof = (&merkle.RangeProof{N: uint64(len(leaves)), Root: tree.Root(), Hashes: hashes}).Marshal()
			return resp
		})
	}
}

// TestByzantineMatrix drives verified reads against every pairing of two
// simultaneous provider misbehaviors on an n=5, k=2 fleet. With at most two
// bad providers and three honest ones, every verified read must return the
// exact honest result — a malformed answer marks its provider faulty like a
// failed proof does, a re-cut proof loses the vote, and neither stops the
// client.
func TestByzantineMatrix(t *testing.T) {
	behaviors := []behavior{honest, crashed, corruptShares, withholdsRows, injectsGarbage, wrongType, shortRows, badHeader, recutsProof}
	for _, b1 := range behaviors {
		for _, b2 := range behaviors {
			t.Run(fmt.Sprintf("%v+%v", b1, b2), func(t *testing.T) {
				f := newFleet(t, 5, 2, Options{})
				setupEmployees(t, f)
				applyBehavior(f, 1, b1)
				applyBehavior(f, 3, b2)
				res, err := f.client.Exec(`SELECT name, salary FROM employees
					WHERE salary BETWEEN 10 AND 80 VERIFIED`)
				if err != nil {
					t.Fatalf("verified read failed under %v+%v: %v", b1, b2, err)
				}
				got := rowsAsStrings(res)
				want := "[John,10 Alice,20 John,35 Bob,40 Carol,60 Dave,80]"
				if fmt.Sprint(got) != want {
					t.Fatalf("under %v+%v got %v", b1, b2, got)
				}
				if !res.Verified {
					t.Fatal("result not marked verified")
				}
			})
		}
	}
}

// Aggregates under the same adversities: verified mode falls back to the
// scan path, which must survive two bad providers.
func TestByzantineVerifiedAggregates(t *testing.T) {
	f := newFleet(t, 5, 2, Options{})
	setupEmployees(t, f)
	applyBehavior(f, 0, corruptShares)
	applyBehavior(f, 4, crashed)
	res, err := f.client.Exec(`SELECT COUNT(*), SUM(salary), MEDIAN(salary) FROM employees VERIFIED`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsAsStrings(res); fmt.Sprint(got) != "[6,245,35]" {
		t.Fatalf("got %v", got)
	}
}

// Provider-side aggregates are not verified, but the K partials of a bucket
// are cross-checked where they are combined: a provider that is off by one in
// one bucket's count, or that picks another row as a bucket's MIN, disagrees
// with its peer, and the statement fails as inconsistent rather than answering
// — whether the buckets have a key or there is only the one.
func TestByzantineAggregatePartials(t *testing.T) {
	f := newFleet(t, 2, 2, Options{})
	setupEmployees(t, f)
	queries := map[string]string{
		`SELECT COUNT(*), MIN(salary) FROM employees`:                     "[6,10]",
		`SELECT dept, COUNT(*), MIN(salary) FROM employees GROUP BY dept`: "[1,2,10 2,2,40 3,2,35]",
	}
	for name, lie := range map[string]func(*proto.GroupPartial){
		"count": func(g *proto.GroupPartial) { g.Count++ },
		"pick":  func(g *proto.GroupPartial) { g.Pick, g.Sum = g.Pick+1, g.Sum^0x10 },
	} {
		f.faults[1].SetCorrupter(func(resp proto.Message) proto.Message {
			if gr, ok := resp.(*proto.GroupResult); ok && len(gr.Groups) > 0 {
				lie(&gr.Groups[len(gr.Groups)-1])
			}
			return resp
		})
		for q := range queries {
			if res, err := f.client.Exec(q); !errors.Is(err, ErrInconsistent) {
				t.Errorf("provider lying about a bucket's %s: %s = %v, %v, want ErrInconsistent", name, q, res, err)
			}
		}
	}
	f.faults[1].SetCorrupter(nil)
	for q, want := range queries {
		if got := rowsAsStrings(f.mustExec(t, q)); fmt.Sprint(got) != want {
			t.Errorf("honest again: %s = %v, want %s", q, got, want)
		}
	}
}

// Three bad providers of five with k=2 can still be survivable when their
// faults are detectable per-provider (proof failures), since two honest
// providers remain — but four bad ones cannot. Three liars that re-cut their
// proofs are not detectable per provider and would win the vote: that case is
// open until a verified read checks a root the client holds.
func TestByzantineBeyondThreshold(t *testing.T) {
	f := newFleet(t, 5, 2, Options{})
	setupEmployees(t, f)
	for _, p := range []int{0, 1, 2} {
		applyBehavior(f, p, withholdsRows)
	}
	res, err := f.client.Exec(`SELECT COUNT(*) FROM employees WHERE salary >= 10 VERIFIED`)
	if err != nil {
		t.Fatalf("three detectable faults with two honest left: %v", err)
	}
	if res.Rows[0][0].I != 6 {
		t.Fatalf("count = %d", res.Rows[0][0].I)
	}
	applyBehavior(f, 3, withholdsRows)
	if _, err := f.client.Exec(`SELECT COUNT(*) FROM employees WHERE salary >= 10 VERIFIED`); err == nil {
		t.Fatal("four bad providers of five slipped past verification")
	}
}

// TestWrongTypeStreamFailsOver: a provider among the K that turns a streaming
// read's chunks into another message type is failed over and marked failing,
// as the transport fails a session whose chunk frame carries no rows, and
// the read answers the honest rows.
func TestWrongTypeStreamFailsOver(t *testing.T) {
	f := newFleet(t, 3, 2, Options{HedgeDelay: -1})
	setupEmployees(t, f)
	const q = `SELECT name, salary FROM employees WHERE salary BETWEEN 10 AND 80`
	want := fmt.Sprint(rowsAsStrings(f.mustExec(t, q)))
	e := f.client.groups[0]
	liar := e.providerOrder(true)[0]
	applyBehavior(f, liar, wrongType)
	if got := fmt.Sprint(rowsAsStrings(f.mustExec(t, q))); got != want {
		t.Fatalf("with provider %d answering chunks with another type: %s, want %s", liar, got, want)
	}
	if !e.provs[liar].isFailing() {
		t.Fatalf("provider %d answered a stream with a non-row chunk and is not marked failing", liar)
	}
}
