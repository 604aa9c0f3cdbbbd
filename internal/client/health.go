// Per-provider health tracking for tail-tolerant reads. Secret sharing
// means any K of N providers can serve a read, so the client is free to
// route around a provider that is merely slow — a gray failure the down[]
// failover flag cannot see, because the provider still answers eventually.
//
// Three mechanisms cooperate here:
//
//   - A health ledger per provider: an EWMA of observed call latency plus a
//     consecutive-failure counter, fed by every call the client makes
//     (including repair-loop pings). providerOrder/cleanOrder rank
//     candidates within their availability tier by this score, so read
//     sets prefer the currently-fastest K providers instead of first-K.
//   - A half-open circuit breaker: consecutive transport failures open the
//     breaker for a cooldown (doubling per re-trip), during which the
//     provider ranks behind every closed-breaker peer in its tier. When
//     the cooldown lapses the provider is rankable again — the next read
//     that selects it is the probe; success closes the breaker, failure
//     re-opens it with a doubled cooldown.
//   - A hedge budget: when a read-set member exceeds the straggler
//     threshold (Options.HedgeDelay, or dynamically a multiple of the
//     recent p99), the read hedges onto a spare provider — but only while
//     hedges stay a small fraction of total calls, so a uniformly slow
//     cluster cannot double its own load by hedging every request.
package client

import (
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"sssdb/internal/hist"
	"sssdb/internal/proto"
)

// Health and hedging tuning.
const (
	// ewmaWeight is the weight of each new latency observation (x1000).
	ewmaWeightMilli = 200
	// breakerTripFails opens the breaker: this many consecutive transport
	// failures (timeouts, dead connections) with no success between.
	breakerTripFails = 3
	// breakerBaseCooldown..breakerMaxCooldown bound the open interval;
	// each re-trip while unhealthy doubles it.
	breakerBaseCooldown = 250 * time.Millisecond
	breakerMaxCooldown  = 8 * time.Second
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

// provHealth is one provider's health ledger.
type provHealth struct {
	mu sync.Mutex
	// ewma is the exponentially-weighted moving average of observed call
	// latency; zero means no (fresh) observation.
	ewma time.Duration
	// lastObs stamps the newest observation for staleness decay.
	lastObs time.Time
	// consecFails counts transport failures since the last success.
	consecFails int
	// openUntil, when in the future, holds the breaker open; cooldown is
	// the interval the next trip will use (doubles per re-trip).
	openUntil time.Time
	cooldown  time.Duration
}

// healthState aggregates the client's tail-tolerance bookkeeping.
type healthState struct {
	provs []provHealth
	// lat is the recent-call latency histogram feeding the dynamic
	// straggler threshold.
	lat hist.Hist
	// calls counts health-observed calls; the hedge budget scales on it.
	calls atomic.Uint64
	// Hedge accounting (see HedgeStats).
	hedgesIssued     atomic.Uint64
	hedgesWon        atomic.Uint64
	hedgesSuppressed atomic.Uint64
	// hedgeMu serializes budget admission (hedges are rare; a mutex keeps
	// the check-then-count race-free without CAS loops).
	hedgeMu sync.Mutex
}

func newHealthState(n int) *healthState {
	return &healthState{provs: make([]provHealth, n)}
}

// observe records the outcome of one call to provider p. Latency feeds the
// EWMA and the straggler histogram on success; transport failures advance
// the breaker. Remote (application-level) errors count as successes here:
// the provider answered promptly, it just disliked the request.
func (h *healthState) observe(p int, d time.Duration, err error) {
	h.calls.Add(1)
	ph := &h.provs[p]
	if err != nil {
		var remote *proto.RemoteError
		if !errors.As(err, &remote) {
			ph.mu.Lock()
			ph.consecFails++
			if ph.consecFails >= breakerTripFails {
				if ph.cooldown == 0 {
					ph.cooldown = breakerBaseCooldown
				} else if ph.cooldown < breakerMaxCooldown {
					ph.cooldown *= 2
				}
				ph.openUntil = time.Now().Add(ph.cooldown)
				ph.consecFails = 0
			}
			ph.mu.Unlock()
			return
		}
	}
	h.lat.Observe(d)
	ph.mu.Lock()
	if ph.ewma == 0 {
		ph.ewma = d
	} else {
		ph.ewma = (ph.ewma*(1000-ewmaWeightMilli) + d*ewmaWeightMilli) / 1000
	}
	ph.lastObs = time.Now()
	ph.consecFails = 0
	ph.cooldown = 0
	ph.openUntil = time.Time{}
	ph.mu.Unlock()
}

// observeStall folds an in-flight call's stall into provider p's EWMA: the
// call has provably not answered for at least d, which is a right-censored
// latency sample. Issued at hedge time, it lets ranking demote a
// gray-failing provider after the first hedge instead of waiting for its
// stalled calls to complete or time out — without it, a provider whose
// calls never finish keeps a neutral rank, stays in every read set, and
// drains the hedge budget until statements start dying on the deadline.
// The breaker and the budget denominator are untouched: the call may yet
// succeed, and a stall is not a wire round trip.
func (h *healthState) observeStall(p int, d time.Duration) {
	ph := &h.provs[p]
	ph.mu.Lock()
	if ph.ewma == 0 {
		ph.ewma = d
	} else {
		ph.ewma = (ph.ewma*(1000-ewmaWeightMilli) + d*ewmaWeightMilli) / 1000
	}
	ph.lastObs = time.Now()
	ph.mu.Unlock()
}

// rank returns provider p's within-tier sort key at time now: lower is
// better. The EWMA is bucketed on a log scale so jitter between similarly
// fast providers does not flap the read-set order, while a genuine
// straggler (an order of magnitude slower) sorts decisively last. An open
// breaker demotes behind every closed-breaker peer; stale observations
// rank neutral (0) so idle providers get re-probed.
func (h *healthState) rank(p int, now time.Time) int {
	ph := &h.provs[p]
	ph.mu.Lock()
	defer ph.mu.Unlock()
	r := 0
	if !ph.lastObs.IsZero() && now.Sub(ph.lastObs) < healthStaleAfter && ph.ewma > 0 {
		r = bits.Len64(uint64(ph.ewma / time.Microsecond))
	}
	if ph.openUntil.After(now) {
		r += 1 << 16 // breaker open: after every closed peer in the tier
	}
	return r
}

// Latency returns provider p's current EWMA call latency (zero when
// unobserved).
func (h *healthState) latency(p int) time.Duration {
	ph := &h.provs[p]
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return ph.ewma
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
	for _, e := range c.groups {
		for p := 0; p < e.opts.N; p++ {
			out = append(out, e.health.latency(p))
		}
	}
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

// timeoutMillis converts an absolute deadline into the relative
// ScanRequest.TimeoutMillis the provider uses to abandon a scan whose
// client has already given up. Rounds up so a sub-millisecond remainder
// still propagates as a bound (zero means unbounded on the wire).
func timeoutMillis(deadline time.Time) uint64 {
	if deadline.IsZero() {
		return 0
	}
	rem := time.Until(deadline)
	if rem <= 0 {
		return 1
	}
	ms := (rem + time.Millisecond - 1) / time.Millisecond
	return uint64(ms)
}
