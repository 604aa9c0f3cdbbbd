package client

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"

	"sssdb/internal/proto"
	"sssdb/internal/transport"
)

// provider is everything the client believes about one provider of a group:
// the connection, the outcome ledger, the hint journal, the last ping's
// storage stats and the repair probe backoff. mu guards all of it below conn
// and fleet; it is a leaf lock, held for a few field accesses and across at
// most a journal fsync — never across a provider call, and never while
// acquiring the group's statement lock.
type provider struct {
	conn transport.Conn
	// fleet is the group's shared latency histogram and call counter.
	fleet *healthState

	mu sync.Mutex
	// failing records that the newest outcome observe judged was a transport
	// failure: the provider sorts behind every reachable peer until a call
	// to it is answered again.
	failing bool
	// ewma is the exponentially-weighted moving average of observed call
	// latency (zero: none yet); lastObs stamps the newest sample, for
	// staleness decay.
	ewma    time.Duration
	lastObs time.Time
	// hints is the hinted-handoff journal (hints.go); while it queues
	// anything the provider is "lagging".
	hints hintJournal
	// stats is the storage StatsResponse of the last repair-loop ping this
	// provider answered (nil until first probed).
	stats *proto.StatsResponse
	// probeFails and probeNext are the repair loop's exponential backoff
	// while the provider does not even answer pings.
	probeFails int
	probeNext  time.Time
}

// eachProvider runs fn on every provider record in flat g*N+p order, holding
// the record's mutex.
func (c *Client) eachProvider(fn func(i int, p *provider)) {
	for g, e := range c.groups {
		for j, p := range e.provs {
			p.mu.Lock()
			fn(g*c.opts.N+j, p)
			p.mu.Unlock()
		}
	}
}

// remoteCode reports whether err is a provider's own answer — an
// application-level *proto.RemoteError — rather than a failure to reach the
// provider, and the code it carried.
func remoteCode(err error) (code proto.ErrorCode, answered bool) {
	var remote *proto.RemoteError
	if errors.As(err, &remote) {
		return remote.Code, true
	}
	return 0, false
}

// observe is the one judge of a finished call: engine.call and a provider
// stream's goroutine hand it every outcome, and nothing else decides what a
// failure is. A transport error (dead connection, timeout) marks the
// provider failing. Anything the provider answered — a response or a
// RemoteError — proves it reachable: it clears failing, and d feeds the EWMA
// and the fleet's straggler histogram. That includes CodeServerBusy left
// after the transport's busy-retries: the provider is up, and the retries'
// backoff is inside d, so the EWMA alone ranks an overloaded provider behind
// its peers.
func (p *provider) observe(d time.Duration, err error) {
	p.fleet.calls.Add(1)
	_, answered := remoteCode(err)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failing = err != nil && !answered; p.failing {
		return
	}
	p.fleet.lat.Observe(d)
	p.foldLatency(d)
}

// observeStall folds an in-flight call's stall into the EWMA: the call has
// provably not answered for at least d, which is a right-censored latency
// sample. Issued at hedge time, it lets ranking demote a gray-failing
// provider after the first hedge instead of waiting for its stalled calls to
// complete or time out — without it, a provider whose calls never finish
// keeps a neutral rank, stays in every read set, and drains the hedge budget
// until statements start dying on the deadline. The failing bit and the
// budget denominator are untouched: the call may yet succeed, and a stall is
// not a wire round trip.
func (p *provider) observeStall(d time.Duration) {
	p.mu.Lock()
	p.foldLatency(d)
	p.mu.Unlock()
}

func (p *provider) foldLatency(d time.Duration) {
	if p.ewma == 0 {
		p.ewma = d
	} else {
		p.ewma = (p.ewma*(1000-ewmaWeightMilli) + d*ewmaWeightMilli) / 1000
	}
	p.lastObs = time.Now()
}

// standing is where the provider sorts in a read order at time now. The
// availability tier dominates: 0 reachable and caught up, +1 lagging, +2
// failing. rank breaks ties within a tier, lower is better: the EWMA,
// bucketed on a log scale so jitter between similarly fast providers does not
// flap the order while a genuine straggler (an order of magnitude slower)
// sorts decisively last. Stale observations rank neutral (0) so an idle
// provider gets re-probed.
func (p *provider) standing(now time.Time) (tier, rank int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.hints.lagging {
		tier++
	}
	if p.failing {
		tier += 2
	}
	if !p.lastObs.IsZero() && now.Sub(p.lastObs) < healthStaleAfter && p.ewma > 0 {
		rank = bits.Len64(uint64(p.ewma / time.Microsecond))
	}
	return tier, rank
}

// providerOrder snapshots the failover candidate order, best first, by
// (tier, rank) of provider.standing; the sort is stable, so providers without
// fresh observations keep index order. A lagging provider is a candidate
// only with allowLagging — only for streaming scans, whose rows carry the ids
// that let the scan mask everything at or above the provider's lag floor.
// Statements whose per-provider results cannot be masked (aggregates, joins,
// verified reads) and hedge spares pass false: a lagging provider would
// silently compute over a stale share set.
func (e *engine) providerOrder(allowLagging bool) []int {
	now := time.Now()
	tiers, ranks := make([]int, len(e.provs)), make([]int, len(e.provs))
	order := make([]int, 0, len(e.provs))
	for i, p := range e.provs {
		tiers[i], ranks[i] = p.standing(now)
		if allowLagging || tiers[i]&1 == 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := order[a], order[b]
		if tiers[pa] != tiers[pb] {
			return tiers[pa] < tiers[pb]
		}
		return ranks[pa] < ranks[pb]
	})
	return order
}

// lagging reports whether the provider has queued hints or an unfinished
// repair.
func (p *provider) lagging() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hints.lagging
}

// lagFloor is the row-id bound below which the provider saw every mutation
// of table: its journal's floor while it is lagging, MaxUint64 otherwise. A
// scan that includes the provider caps its watermark with it.
func (p *provider) lagFloor(table string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.hints.floors[table]; ok && p.hints.lagging {
		return f
	}
	return math.MaxUint64
}

// hint queues msgs for provider p, which missed them — or must not see them
// ahead of the hints it is already owed — and wakes the repair loop that
// will deliver them. A journal persistence failure is not fatal: the payload
// is still queued in memory, so this process repairs the provider anyway.
func (e *engine) hint(p int, msgs ...proto.Message) {
	pr := e.provs[p]
	pr.mu.Lock()
	for _, m := range msgs {
		_ = pr.hints.append(m)
	}
	pr.mu.Unlock()
	e.ensureRepairLoop()
	e.kickRepair()
}

// tally is how the answers of one round divide, each list ascending in the
// round's own provider numbering: acked; rejected — the provider answered
// with a remote error, a logical problem (duplicate row, missing table), not
// an outage; unreached — the call failed in transport, so the provider
// missed the message. rejection and outage join the errors of the latter
// two, each naming its provider.
type tally struct {
	acked, rejected, unreached []int
	rejection, outage          error
}

// round is the one concurrent fan-out of a write: send(p) runs at once for
// every p of to, and the tally says how the answers divide. What follows
// from that — the quorum rule, what to hint, what to compensate — is the
// caller's policy.
func round(to []int, send func(p int) error) (t tally) {
	errs := make([]error, len(to))
	var wg sync.WaitGroup
	for i, p := range to {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = send(p)
		}()
	}
	wg.Wait()
	var rejections, outages []error
	for i, p := range to {
		if errs[i] == nil {
			t.acked = append(t.acked, p)
			continue
		}
		err := fmt.Errorf("provider %d: %w", p, errs[i])
		if _, answered := remoteCode(err); answered {
			t.rejected, rejections = append(t.rejected, p), append(rejections, err)
		} else {
			t.unreached, outages = append(t.unreached, p), append(outages, err)
		}
	}
	t.rejection, t.outage = errors.Join(rejections...), errors.Join(outages...)
	return t
}

// deliver is a round's send function for this group's providers: provider p
// gets build(p), with no deadline.
func (e *engine) deliver(build func(p int) proto.Message) func(p int) error {
	return func(p int) error {
		_, err := e.call(p, build(p), noDeadline)
		return err
	}
}

// as asserts that a provider answered with the message type its request
// calls for.
func as[T proto.Message](provider int, msg proto.Message) (T, error) {
	m, ok := msg.(T)
	if !ok {
		return m, fmt.Errorf("%w: provider %d returned %T", ErrInconsistent, provider, msg)
	}
	return m, nil
}
