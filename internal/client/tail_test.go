package client

// Tail-tolerance tests: health-ranked read sets, hedged requests, and
// end-to-end read deadlines (gray-failure handling, not crash failover —
// the straggling provider in these tests still answers, eventually).

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// totalCalls sums the wire call counters across the fleet.
func totalCalls(f *fleet) uint64 {
	var n uint64
	for _, fc := range f.faults {
		n += fc.Stats().Calls
	}
	return n
}

// A healthy fleet must never hedge: every SELECT costs exactly K provider
// calls on the wire, and the hedge counters stay zero. HedgeDelay is
// pinned high so scheduler noise cannot trip a hedge and flake the count.
func TestNoHedgesWhenAllHealthy(t *testing.T) {
	f := newFleet(t, 4, 2, Options{HedgeDelay: 250 * time.Millisecond})
	setupEmployees(t, f)
	base := totalCalls(f)
	const queries = 25
	for i := 0; i < queries; i++ {
		f.mustExec(t, `SELECT name, salary FROM employees WHERE dept = 2`)
	}
	got := totalCalls(f) - base
	want := uint64(queries * f.client.K())
	if got != want {
		t.Errorf("healthy fleet used %d wire calls for %d SELECTs, want exactly %d (K=%d each)",
			got, queries, want, f.client.K())
	}
	if hs := f.client.HedgeStats(); hs.Issued != 0 || hs.Won != 0 {
		t.Errorf("healthy fleet hedged: %+v", hs)
	}
}

// A straggling provider in a whole-response read (collectWhole, the path
// aggregates and joins take) gets hedged: the query completes near the
// healthy providers' latency, not the straggler's.
func TestHedgeCoversStragglerAggregate(t *testing.T) {
	f := newFleet(t, 4, 2, Options{HedgeDelay: 10 * time.Millisecond})
	setupEmployees(t, f)
	// Find a provider the next read set will include (health ties keep
	// index order, but don't depend on that).
	slow := f.client.groups[0].providerOrder(false)[0]
	f.faults[slow].SetDelay(2 * time.Second)
	start := time.Now()
	res := f.mustExec(t, `SELECT SUM(salary) FROM employees WHERE dept = 1`)
	elapsed := time.Since(start)
	if got := fmt.Sprint(rowsAsStrings(res)); got != "[30]" {
		t.Fatalf("hedged aggregate returned %s, want [30]", got)
	}
	if elapsed > time.Second {
		t.Errorf("hedged query took %v; straggler latency leaked through", elapsed)
	}
	hs := f.client.HedgeStats()
	if hs.Issued == 0 {
		t.Error("straggler produced no hedge")
	}
	if hs.Won == 0 {
		t.Error("hedge issued but never won")
	}
}

// A provider whose calls never complete inside the test window must still
// be demoted out of the read set: the hedge itself is the evidence (a
// right-censored stall observation). Without that, the straggler keeps a
// neutral rank, every statement hedges, and a few statements in, the hedge
// budget runs dry and statements start dying on the straggler — exactly
// K-1 healthy answers short. Sequential statements here stay fast and
// hedge only during the first few, before ranking learns. (Aggregates, so
// the stall is observed on a whole-response slot.)
func TestStallObservationDemotesWithoutCompletion(t *testing.T) {
	f := newFleet(t, 3, 2, Options{HedgeDelay: 10 * time.Millisecond})
	setupEmployees(t, f)
	slow := f.client.groups[0].providerOrder(false)[0]
	// Far beyond the test's total runtime: no call to this provider ever
	// completes, so the ledger's only possible signal is the stall itself.
	f.faults[slow].SetDelay(time.Hour)
	for i := 0; i < 12; i++ {
		start := time.Now()
		f.mustExec(t, `SELECT SUM(salary) FROM employees WHERE dept = 1`)
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("query %d took %v; straggler leaked into the read set after ranking should have demoted it", i, el)
		}
	}
	lats := f.client.ProviderLatencies()
	for p, lat := range lats {
		if p != slow && lats[slow] <= lat {
			t.Errorf("straggler EWMA %v not above provider %d's %v; stall observations never reached the ledger", lats[slow], p, lat)
		}
	}
	hs := f.client.HedgeStats()
	if hs.Issued == 0 {
		t.Error("first statement against the stalled provider produced no hedge")
	}
	if hs.Issued > 4 {
		t.Errorf("%d hedges for 12 statements; ranking failed to demote the stalled provider", hs.Issued)
	}
	if hs.Suppressed > 0 {
		t.Errorf("hedge budget ran dry (%d suppressed); stall demotion should keep hedging rare", hs.Suppressed)
	}
}

// Same under the streaming zipper: a stalled provider stream is raced
// against a spare mid-scan, and the result stays correct.
func TestHedgeCoversStragglerStreaming(t *testing.T) {
	var log scanLog
	f := newFleetWrapped(t, 4, 2, Options{HedgeDelay: 10 * time.Millisecond}, log.recorder)
	setupEmployees(t, f)
	want := rowsAsStrings(f.mustExec(t, `SELECT name, salary FROM employees`))

	readSet := f.client.groups[0].providerOrder(true)[:2]
	slow := readSet[0]
	f.faults[slow].SetDelay(2 * time.Second)
	log.take()
	start := time.Now()
	res := f.mustExec(t, `SELECT name, salary FROM employees`)
	elapsed := time.Since(start)
	// The rival stream ran on a spare provider and asked for exactly the
	// cells the stalled stream was asked for.
	rival := false
	for _, s := range log.take() {
		rival = rival || (s.provider != readSet[0] && s.provider != readSet[1])
		if fmt.Sprint(s.req.Projection) != "[name#f salary#f]" {
			t.Errorf("provider %d was asked for %v, want [name#f salary#f]", s.provider, s.req.Projection)
		}
	}
	if !rival {
		t.Error("no spare provider received the rival stream")
	}
	got := rowsAsStrings(res)
	if len(got) != len(want) {
		t.Fatalf("hedged scan returned %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("hedged scan row %d = %q, want %q", i, got[i], want[i])
		}
	}
	if elapsed > time.Second {
		t.Errorf("hedged scan took %v; straggler latency leaked through", elapsed)
	}
	if hs := f.client.HedgeStats(); hs.Issued == 0 {
		t.Error("stalled stream produced no hedge")
	}
}

// One spare rule for every read: a provider judged failing once but still
// answering is a spare — ranked last, yet not lagging — so a read-set member
// that stalls is raced onto it, by a scan's slot as by an aggregate's.
func hedgeOntoFailingSpare(t *testing.T, query, want string) {
	t.Helper()
	f := newFleet(t, 3, 2, Options{HedgeDelay: 10 * time.Millisecond})
	setupEmployees(t, f)
	f.client.groups[0].provs[2].observe(time.Millisecond, errors.New("connection reset"))
	f.faults[0].SetDelay(2 * time.Second)
	start := time.Now()
	res := f.mustExec(t, query)
	elapsed := time.Since(start)
	if got := fmt.Sprint(rowsAsStrings(res)); got != want {
		t.Fatalf("%s = %s, want %s", query, got, want)
	}
	if elapsed > time.Second {
		t.Errorf("%s took %v; the failing spare was not raced", query, elapsed)
	}
	if hs := f.client.HedgeStats(); hs.Won < 1 {
		t.Errorf("no hedge won: %+v", hs)
	}
}

func TestHedgeOntoFailingSpareStreaming(t *testing.T) {
	hedgeOntoFailingSpare(t, `SELECT name FROM employees WHERE salary <= 20`, "[John Alice]")
}

func TestHedgeOntoFailingSpareAggregate(t *testing.T) {
	hedgeOntoFailingSpare(t, `SELECT SUM(salary) FROM employees WHERE dept = 1`, "[30]")
}

// After a straggler has been observed, health ranking routes subsequent
// read sets around it entirely — no hedge needed, no slow call made.
func TestHealthRankingDemotesStraggler(t *testing.T) {
	f := newFleet(t, 4, 2, Options{HedgeDelay: 10 * time.Millisecond})
	setupEmployees(t, f)
	slow := f.client.groups[0].providerOrder(true)[0]
	f.faults[slow].SetDelay(300 * time.Millisecond)
	// First query pays the hedge; the slow call's latency lands in the
	// ledger when it finally completes. One 300ms observation folded into
	// a microsecond-scale EWMA at weight 0.2 yields tens of milliseconds —
	// orders of magnitude above the healthy peers either way.
	f.mustExec(t, `SELECT name FROM employees WHERE dept = 1`)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if lat := f.client.ProviderLatencies()[slow]; lat >= 10*time.Millisecond {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("straggler latency never observed: %v", f.client.ProviderLatencies())
		}
		time.Sleep(5 * time.Millisecond)
	}
	order := f.client.groups[0].providerOrder(true)
	if order[len(order)-1] != slow {
		t.Fatalf("provider order %v does not rank straggler %d last", order, slow)
	}
	// The next queries must not touch the straggler at all.
	base := f.faults[slow].Stats().Calls
	for i := 0; i < 5; i++ {
		start := time.Now()
		f.mustExec(t, `SELECT name FROM employees WHERE dept = 1`)
		if el := time.Since(start); el > 200*time.Millisecond {
			t.Errorf("query %d took %v after straggler was demoted", i, el)
		}
	}
	if n := f.faults[slow].Stats().Calls - base; n != 0 {
		t.Errorf("demoted straggler still received %d calls", n)
	}
}

// The hedge budget bounds issued hedges to a small fraction of total
// calls: with no call history only the burst allowance is available.
func TestHedgeBudget(t *testing.T) {
	h := &healthState{}
	p := &provider{fleet: h}
	for i := 0; i < hedgeBurst; i++ {
		if !h.allowHedge() {
			t.Fatalf("burst hedge %d denied", i)
		}
	}
	if h.allowHedge() {
		t.Fatal("hedge beyond burst allowed with no call history")
	}
	if h.hedgesSuppressed.Load() != 1 {
		t.Fatalf("suppressed = %d, want 1", h.hedgesSuppressed.Load())
	}
	// 20 observed calls buy one more hedge.
	for i := 0; i < hedgeBudgetDiv; i++ {
		p.observe(time.Millisecond, nil)
	}
	if !h.allowHedge() {
		t.Fatal("earned hedge denied")
	}
	if h.allowHedge() {
		t.Fatal("unearned hedge allowed")
	}
}

// The dynamic straggler threshold needs a minimum sample count, then
// clamps a p99 multiple into [hedgeFloor, hedgeCeil].
func TestDynamicThreshold(t *testing.T) {
	h := &healthState{}
	p := &provider{fleet: h}
	if thr := h.dynamicThreshold(); thr != 0 {
		t.Fatalf("threshold %v with no samples", thr)
	}
	for i := 0; i < 100; i++ {
		p.observe(50*time.Microsecond, nil)
	}
	if thr := h.dynamicThreshold(); thr != hedgeFloor {
		t.Fatalf("fast-fleet threshold %v, want floor %v", thr, hedgeFloor)
	}
	for i := 0; i < 100; i++ {
		p.observe(10*time.Second, nil)
	}
	if thr := h.dynamicThreshold(); thr != hedgeCeil {
		t.Fatalf("slow-fleet threshold %v, want ceiling %v", thr, hedgeCeil)
	}
}

// Options.ReadDeadline bounds Query end to end: with every provider slow,
// the statement fails with ErrDeadline near the deadline instead of
// hanging for the providers' latency.
func TestReadDeadlineQuery(t *testing.T) {
	f := newFleet(t, 3, 2, Options{ReadDeadline: 60 * time.Millisecond, HedgeDelay: -1})
	setupEmployees(t, f)
	for _, fc := range f.faults {
		fc.SetDelay(5 * time.Second)
	}
	start := time.Now()
	_, err := f.client.Exec(`SELECT name FROM employees`)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline-bounded query took %v", elapsed)
	}
	// Clearing the stall leaves nothing sticky behind: the same statement
	// succeeds under the same deadline.
	for _, fc := range f.faults {
		fc.SetDelay(0)
	}
	if res := f.mustExec(t, `SELECT name FROM employees`); len(res.Rows) == 0 {
		t.Fatal("no rows once the stall cleared")
	}
}

// The same bound holds for the QueryRows iterator (streaming path): Next
// returns false and Err reports the deadline, with no buffered retry
// doubling the wait.
func TestReadDeadlineQueryRows(t *testing.T) {
	f := newFleet(t, 3, 2, Options{ReadDeadline: 60 * time.Millisecond, HedgeDelay: -1})
	setupEmployees(t, f)
	for _, fc := range f.faults {
		fc.SetDelay(5 * time.Second)
	}
	start := time.Now()
	rows, err := f.client.QueryRows(`SELECT name FROM employees`)
	if err != nil {
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("QueryRows err = %v, want ErrDeadline", err)
		}
		return
	}
	defer rows.Close()
	if rows.Next() {
		t.Fatal("Next succeeded with every provider slow")
	}
	elapsed := time.Since(start)
	if err := rows.Err(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Err() = %v, want ErrDeadline", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline-bounded iteration took %v (buffered retry after deadline?)", elapsed)
	}
}

// Verified reads keep their strict all-providers semantics but still
// honor the deadline.
func TestReadDeadlineVerified(t *testing.T) {
	f := newFleet(t, 3, 2, Options{ReadDeadline: 60 * time.Millisecond, Verified: true})
	setupEmployees(t, f)
	for _, fc := range f.faults {
		fc.SetDelay(5 * time.Second)
	}
	start := time.Now()
	_, err := f.client.Exec(`SELECT name FROM employees`)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("verified deadline query took %v", el)
	}
}

// A deadline that comfortably covers healthy providers changes nothing:
// queries succeed and no deadline error leaks.
func TestReadDeadlineHealthyFleet(t *testing.T) {
	f := newFleet(t, 3, 2, Options{ReadDeadline: 5 * time.Second})
	setupEmployees(t, f)
	for i := 0; i < 10; i++ {
		res := f.mustExec(t, `SELECT name FROM employees WHERE dept = 1`)
		if len(res.Rows) != 2 {
			t.Fatalf("query %d: %d rows, want 2", i, len(res.Rows))
		}
	}
}

// Repair-loop probes under a rapidly flapping provider must keep their
// exponential backoff (no tight-looping on a dead conn) and must not
// readmit the provider — Converged stays false — until a stable up-period
// lets the hints actually drain.
func TestRepairFlappingProvider(t *testing.T) {
	const interval = 20 * time.Millisecond
	f := newFleet(t, 3, 2, Options{WriteQuorum: 2, RepairInterval: interval})
	setupEmployees(t, f)

	f.faults[2].Crash()
	for i := 0; i < 4; i++ {
		f.mustExec(t, fmt.Sprintf(`INSERT INTO employees VALUES ('F%d', %d, 7)`, i, 200+i))
	}
	if f.client.PendingHints() == 0 {
		t.Fatal("degraded writes queued no hints")
	}

	// Flap: rapid down/up cycles. The injected 15ms call latency makes
	// every up-window (2ms) too short for even one replay call to land,
	// so the provider can never legitimately converge mid-flap — if
	// Converged flips true while hints pend, readmission was premature.
	f.faults[2].SetDelay(15 * time.Millisecond)
	base := f.faults[2].Stats().Calls
	flapStart := time.Now()
	for cycle := 0; cycle < 10; cycle++ {
		f.faults[2].Recover()
		f.client.RepairNow()
		time.Sleep(2 * time.Millisecond)
		f.faults[2].Crash()
		time.Sleep(2 * time.Millisecond)
		if f.client.Converged() {
			t.Fatal("client converged while no replay call could have completed")
		}
		if f.client.PendingHints() == 0 {
			t.Fatal("hints drained while no replay call could have completed")
		}
	}
	// Give the loop a few more intervals while the provider stays down:
	// backed-off probes must stay sparse.
	time.Sleep(6 * interval)
	flapWindow := time.Since(flapStart)
	probes := f.faults[2].Stats().Calls - base
	// A tight loop would push thousands of calls through this window; the
	// ticker cadence bounds legitimate traffic near flapWindow/interval
	// probes plus one replay attempt per successful flap probe.
	if limit := uint64(flapWindow/interval)*4 + 40; probes > limit {
		t.Fatalf("flapping provider received %d calls in %v (limit %d): repair probe tight loop",
			probes, flapWindow, limit)
	}
	if f.client.Converged() {
		t.Fatal("converged while provider is down with pending hints")
	}

	// A stable recovery drains everything.
	f.faults[2].SetDelay(0)
	f.faults[2].Recover()
	waitConverged(t, f.client)
	rc, err := f.stores[2].RowCount("employees")
	if err != nil {
		t.Fatal(err)
	}
	if rc != 10 {
		t.Fatalf("flapped provider holds %d rows after convergence, want 10", rc)
	}
}
