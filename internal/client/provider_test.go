package client

// Tests of the provider record: the one judge of a finished call
// (provider.observe) and the one ordering function (engine.providerOrder).

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sssdb/internal/proto"
	"sssdb/internal/server"
	"sssdb/internal/transport"
)

// rejecter answers its next armed aggregate, and its next armed scan, with
// an application-level error: the provider is up and prompt, it just
// dislikes the request.
type rejecter struct {
	*server.Provider
	aggs, scans atomic.Int32
}

func (h *rejecter) Handle(req proto.Message) proto.Message {
	if _, ok := req.(*proto.AggregateRequest); ok && h.aggs.Add(-1) >= 0 {
		return &proto.ErrorResponse{Code: proto.CodeNoSuchTable, Msg: "injected rejection"}
	}
	return h.Provider.Handle(req)
}

func (h *rejecter) HandleStream(req proto.Message, emit func(*proto.RowsResponse) error) (bool, error) {
	if _, ok := req.(*proto.ScanRequest); ok && h.scans.Add(-1) >= 0 {
		return true, &proto.RemoteError{Code: proto.CodeInternal, Msg: "injected rejection"}
	}
	return h.Provider.HandleStream(req, emit)
}

// isFailing reads the ledger's failing bit.
func (p *provider) isFailing() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failing
}

// A remote error is not an outage: the statement routes around the answer
// (it cannot count toward the quorum), but the provider that gave it keeps
// its place at the head of both read orders.
func TestRemoteErrorDoesNotDemote(t *testing.T) {
	const victim = 0
	var rej *rejecter
	f := newFleetWrapped(t, 3, 2, Options{HedgeDelay: -1}, func(i int, p *server.Provider) transport.Handler {
		if i != victim {
			return p
		}
		rej = &rejecter{Provider: p}
		return rej
	})
	setupEmployees(t, f)
	e := f.client.groups[0]
	// The peers are observed much slower, so rank — not index order, not
	// microsecond jitter — puts the victim first while it is not demoted.
	for i, p := range e.provs {
		if i != victim {
			p.observe(50*time.Millisecond, nil)
		}
	}
	check := func(after string) {
		t.Helper()
		for _, allowLagging := range []bool{false, true} {
			if order := e.providerOrder(allowLagging); order[0] != victim {
				t.Fatalf("after %s: providerOrder(%v) = %v, want provider %d still first", after, allowLagging, order, victim)
			}
		}
		if e.provs[victim].isFailing() {
			t.Fatalf("after %s: the provider is judged failing", after)
		}
	}
	check("setup")

	rej.aggs.Store(1)
	if got := fmt.Sprint(rowsAsStrings(f.mustExec(t, `SELECT SUM(salary) FROM employees WHERE dept = 1`))); got != "[30]" {
		t.Fatalf("aggregate around a rejection returned %s, want [30]", got)
	}
	if rej.aggs.Load() > 0 {
		t.Fatal("the victim was never asked for the aggregate")
	}
	check("a rejected aggregate")

	rej.scans.Store(1)
	if res := f.mustExec(t, `SELECT name FROM employees`); len(res.Rows) != 6 {
		t.Fatalf("scan around a rejection returned %d rows, want 6", len(res.Rows))
	}
	if rej.scans.Load() > 0 {
		t.Fatal("the victim was never asked for the scan")
	}
	check("a rejected scan")
}

// Every transport outcome reaches the ledger, whoever is still waiting for
// it: a stream that dies after its first chunk and a hedge loser that fails
// after its statement returned both leave the provider in the failing tier.
func TestEveryOutcomeReachesLedger(t *testing.T) {
	wantFailing := func(t *testing.T, p *provider) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if tier, _ := p.standing(time.Now()); p.isFailing() && tier&2 != 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("the outcome never reached the ledger")
			}
			time.Sleep(time.Millisecond)
		}
	}

	t.Run("stream dies after its first chunk", func(t *testing.T) {
		var active, started atomic.Int32
		f := newFleetWrapped(t, 3, 2, Options{HedgeDelay: -1}, func(_ int, p *server.Provider) transport.Handler {
			// One row per chunk, so a six-row table is a six-chunk stream.
			return &leakProbe{Provider: p, active: &active, started: &started}
		})
		setupEmployees(t, f)
		e := f.client.groups[0]
		dying := e.providerOrder(true)[0]
		f.faults[dying].CrashAfterChunks(1)
		if res := f.mustExec(t, `SELECT name FROM employees`); len(res.Rows) != 6 {
			t.Fatalf("scan over a mid-stream crash returned %d rows, want 6", len(res.Rows))
		}
		wantFailing(t, e.provs[dying])
	})

	t.Run("hedge loser fails after the statement returned", func(t *testing.T) {
		f := newFleet(t, 3, 2, Options{HedgeDelay: 10 * time.Millisecond})
		setupEmployees(t, f)
		e := f.client.groups[0]
		slow := e.providerOrder(false)[0]
		f.faults[slow].SetDelay(time.Minute)
		if got := fmt.Sprint(rowsAsStrings(f.mustExec(t, `SELECT SUM(salary) FROM employees WHERE dept = 1`))); got != "[30]" {
			t.Fatalf("hedged aggregate returned %s, want [30]", got)
		}
		if e.provs[slow].isFailing() {
			t.Fatal("the provider is judged failing while the loser is still parked")
		}
		// The abandoned call, still parked in its delay, now dies.
		f.faults[slow].Crash()
		wantFailing(t, e.provs[slow])
	})
}

// The one ordering function, driven directly: the availability tier
// (failing, lagging) dominates, health (the EWMA bucket) ranks within it,
// stale observations are neutral, ties keep index order, and lagging
// providers are candidates only with allowLagging.
func TestProviderOrder(t *testing.T) {
	now := time.Now()
	fresh, stale := now.Add(-time.Second), now.Add(-2*healthStaleAfter)
	type prov struct {
		failing, lagging bool
		ewma             time.Duration
		obs              time.Time
	}
	for _, tc := range []struct {
		name        string
		provs       []prov
		all, caught []int // providerOrder(true), providerOrder(false)
	}{
		{"no observations keep index order", []prov{{}, {}, {}}, []int{0, 1, 2}, []int{0, 1, 2}},
		{"EWMA bucket ranks within a tier",
			[]prov{{ewma: 40 * time.Millisecond, obs: fresh}, {ewma: 90 * time.Microsecond, obs: fresh}, {ewma: 3 * time.Millisecond, obs: fresh}},
			[]int{1, 2, 0}, []int{1, 2, 0}},
		{"same bucket keeps index order",
			[]prov{{ewma: 70 * time.Microsecond, obs: fresh}, {ewma: 65 * time.Microsecond, obs: fresh}},
			[]int{0, 1}, []int{0, 1}},
		{"a stale observation is neutral",
			[]prov{{ewma: time.Second, obs: stale}, {ewma: time.Millisecond, obs: fresh}},
			[]int{0, 1}, []int{0, 1}},
		{"failing sorts behind slow",
			[]prov{{failing: true}, {ewma: time.Second, obs: fresh}, {}},
			[]int{2, 1, 0}, []int{2, 1, 0}},
		{"lagging sorts behind caught up and ahead of failing; only scans may use it",
			[]prov{{failing: true}, {lagging: true}, {ewma: time.Second, obs: fresh}, {failing: true, lagging: true}},
			[]int{2, 1, 0, 3}, []int{2, 0}},
		{"tier dominates health",
			[]prov{{lagging: true, ewma: time.Microsecond, obs: fresh}, {ewma: time.Second, obs: fresh}},
			[]int{1, 0}, []int{1}},
	} {
		e := &engine{}
		for _, s := range tc.provs {
			p := &provider{failing: s.failing, ewma: s.ewma, lastObs: s.obs}
			p.hints.lagging = s.lagging
			e.provs = append(e.provs, p)
		}
		if got := e.providerOrder(true); fmt.Sprint(got) != fmt.Sprint(tc.all) {
			t.Errorf("%s: providerOrder(true) = %v, want %v", tc.name, got, tc.all)
		}
		if got := e.providerOrder(false); fmt.Sprint(got) != fmt.Sprint(tc.caught) {
			t.Errorf("%s: providerOrder(false) = %v, want %v", tc.name, got, tc.caught)
		}
	}
}
