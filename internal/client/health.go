// Tail tolerance for reads. Secret sharing means any K of N providers can
// serve a read, so the client is free to route around a provider that is
// merely slow — a gray failure the failing bit cannot see, because the
// provider still answers eventually. The provider record (provider.go) keeps
// a ledger — EWMA latency and the failing bit, fed by the one judge of every
// call, repair-loop pings included, and read by providerOrder so read sets
// prefer the currently-fastest K. This file holds its tuning and the second
// mechanism, kept per fleet — a hedge budget: when a read-set member exceeds
// the straggler threshold (Options.HedgeDelay, or dynamically a multiple of
// the recent p99), the read hedges onto a spare provider, but only while
// hedges stay a small fraction of total calls, so a uniformly slow cluster
// cannot double its own load by hedging every request.
package client

import (
	"sync"
	"sync/atomic"
	"time"

	"sssdb/internal/hist"
)

// Health and hedging tuning.
const (
	// ewmaWeight is the weight of each new latency observation (x1000).
	ewmaWeightMilli = 200
	// healthStaleAfter: observations older than this no longer demote a
	// provider — with no fresh signal it ranks as unknown (neutral), so a
	// recovered-but-idle provider gets probed back into rotation instead
	// of being demoted forever on stale data.
	healthStaleAfter = 10 * time.Second
	// hedgeMinObservations gates dynamic hedging until the latency
	// histogram has enough samples for a meaningful p99.
	hedgeMinObservations = 32
	// The dynamic straggler threshold is hedgeP99Multiple times the recent
	// p99, clamped to [hedgeFloor, hedgeCeil]: the floor keeps scheduler
	// noise on fast fleets from triggering hedges, the ceiling keeps a
	// very slow fleet hedgeable at all.
	hedgeP99Multiple = 3
	hedgeFloor       = 1 * time.Millisecond
	hedgeCeil        = 2 * time.Second
	// Hedge budget: at most calls/hedgeBudgetDiv + hedgeBurst hedges may
	// ever have been issued (a ~5% running rate with a small burst
	// allowance), so hedging cannot meaningfully amplify load.
	hedgeBudgetDiv = 20
	hedgeBurst     = 4
)

// healthState is a group's fleet-level tail-tolerance bookkeeping; the
// per-provider ledger is on the provider record (provider.go).
type healthState struct {
	// lat is the recent-call latency histogram feeding the dynamic
	// straggler threshold.
	lat hist.Hist
	// calls counts judged calls; the hedge budget scales on it.
	calls atomic.Uint64
	// Hedge accounting (see HedgeStats).
	hedgesIssued     atomic.Uint64
	hedgesWon        atomic.Uint64
	hedgesSuppressed atomic.Uint64
	// hedgeMu serializes budget admission (hedges are rare; a mutex keeps
	// the check-then-count race-free without CAS loops).
	hedgeMu sync.Mutex
}

// dynamicThreshold derives the straggler threshold from the recent-call
// p99; zero disables hedging (not enough signal yet).
func (h *healthState) dynamicThreshold() time.Duration {
	if h.lat.Count() < hedgeMinObservations {
		return 0
	}
	thr := time.Duration(hedgeP99Multiple) * h.lat.Quantile(0.99)
	if thr < hedgeFloor {
		thr = hedgeFloor
	}
	if thr > hedgeCeil {
		thr = hedgeCeil
	}
	return thr
}

// allowHedge admits one hedge against the running budget, counting it as
// issued; a denied hedge counts as suppressed.
func (h *healthState) allowHedge() bool {
	h.hedgeMu.Lock()
	defer h.hedgeMu.Unlock()
	budget := h.calls.Load()/hedgeBudgetDiv + hedgeBurst
	if h.hedgesIssued.Load() >= budget {
		h.hedgesSuppressed.Add(1)
		return false
	}
	h.hedgesIssued.Add(1)
	return true
}

// HedgeStats reports the client's hedged-request accounting.
type HedgeStats struct {
	// Issued counts hedge requests actually sent to a spare provider.
	Issued uint64
	// Won counts hedges whose response (or stream) was the one used.
	Won uint64
	// Suppressed counts hedge opportunities denied by the rate budget.
	Suppressed uint64
}

// HedgeStats returns hedged-request counters, summed over the provider
// groups. All zeros on a healthy fleet: hedges are issued only when a
// read-set member exceeds the straggler threshold.
func (c *Client) HedgeStats() HedgeStats {
	var total HedgeStats
	for _, e := range c.groups {
		total.Issued += e.health.hedgesIssued.Load()
		total.Won += e.health.hedgesWon.Load()
		total.Suppressed += e.health.hedgesSuppressed.Load()
	}
	return total
}

// ProviderLatencies returns each provider's EWMA observed call latency
// (zero when unobserved), flat g*N+p indexed like LaggingProviders.
func (c *Client) ProviderLatencies() []time.Duration {
	out := make([]time.Duration, 0, len(c.groups)*c.opts.N)
	c.eachProvider(func(_ int, p *provider) { out = append(out, p.ewma) })
	return out
}

// hedgeThreshold resolves the straggler threshold for one read round:
// Options.HedgeDelay when set, the dynamic p99-based threshold otherwise,
// 0 when hedging is (currently or explicitly) off.
func (e *engine) hedgeThreshold() time.Duration {
	if e.opts.HedgeDelay < 0 {
		return 0
	}
	if e.opts.HedgeDelay > 0 {
		return e.opts.HedgeDelay
	}
	return e.health.dynamicThreshold()
}

// readDeadline converts Options.ReadDeadline into this statement's
// absolute deadline (zero when unbounded).
func (e *engine) readDeadline() time.Time {
	if e.opts.ReadDeadline <= 0 {
		return time.Time{}
	}
	return time.Now().Add(e.opts.ReadDeadline)
}
