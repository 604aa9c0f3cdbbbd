// Background repair: the write path queues hints for providers that miss a
// quorum round (see hints.go); this file owns getting them back in sync.
// A lazily-started loop probes lagging providers with exponential backoff,
// replays their hint journals in statement order once they answer pings,
// and readmits each provider only after a Merkle comparison against a
// healthy peer proves its tables converged — re-seeding from the surviving
// quorum when it cannot.
package client

import (
	"errors"
	"fmt"
	"time"

	"sssdb/internal/proto"
)

// ensureRepairLoop starts the background repair goroutine if it is not
// already running. Called whenever a hint is queued.
func (c *Client) ensureRepairLoop() {
	c.repairMu.Lock()
	defer c.repairMu.Unlock()
	if c.repairRunning || c.closed {
		return
	}
	c.repairRunning = true
	c.repairKick = make(chan struct{}, 1)
	c.repairStop = make(chan struct{})
	c.repairDone = make(chan struct{})
	go c.repairLoop(c.repairKick, c.repairStop, c.repairDone)
}

// kickRepair nudges the loop to run a pass now instead of at the next tick.
func (c *Client) kickRepair() {
	c.repairMu.Lock()
	kick := c.repairKick
	c.repairMu.Unlock()
	if kick == nil {
		return
	}
	select {
	case kick <- struct{}{}:
	default:
	}
}

// stopRepairLoop shuts the loop down and waits for it to exit (Close path).
func (c *Client) stopRepairLoop() {
	c.repairMu.Lock()
	c.closed = true
	stop, done := c.repairStop, c.repairDone
	running := c.repairRunning
	c.repairMu.Unlock()
	if !running {
		return
	}
	close(stop)
	<-done
}

// RepairNow kicks the repair loop synchronously into its next pass; tests
// and experiments use it to bound time-to-convergence measurements from
// below instead of waiting out a probe interval.
func (c *Client) RepairNow() {
	if c.shards != nil {
		for _, sub := range c.shards {
			sub.RepairNow()
		}
		return
	}
	c.ensureRepairLoop()
	c.kickRepair()
}

// probeState is the per-provider exponential backoff for health probes.
type probeState struct {
	failures int
	next     time.Time
}

// repairLoop wakes on a base ticker (Options.RepairInterval) or an explicit
// kick and runs one repair pass over every lagging provider.
func (c *Client) repairLoop(kick, stop, done chan struct{}) {
	defer close(done)
	probes := make([]probeState, c.opts.N)
	t := time.NewTicker(c.opts.RepairInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-kick:
		case <-t.C:
		}
		for p := 0; p < c.opts.N; p++ {
			select {
			case <-stop:
				return
			default:
			}
			if !c.isLagging(p) {
				probes[p] = probeState{}
				continue
			}
			st := &probes[p]
			if time.Now().Before(st.next) {
				continue
			}
			// Lightweight liveness probe before committing to a replay: a
			// provider that cannot even answer a ping backs the probe off
			// exponentially (capped at 64x the base interval) so a long
			// outage does not burn a connection attempt every tick.
			resp, err := c.call(p, &proto.PingRequest{}, noDeadline)
			if err != nil {
				st.failures++
				shift := st.failures
				if shift > 6 {
					shift = 6
				}
				st.next = time.Now().Add(c.opts.RepairInterval << shift)
				continue
			}
			c.recordStats(p, resp)
			st.failures = 0
			st.next = time.Time{}
			c.repairProvider(p, stop)
		}
	}
}

// recordStats stores the storage stats a provider attached to a ping
// reply. Old servers answer pings with a bare OK; those are ignored.
func (c *Client) recordStats(p int, resp proto.Message) {
	st, ok := resp.(*proto.StatsResponse)
	if !ok {
		return
	}
	c.statMu.Lock()
	c.provStat[p] = st
	c.statMu.Unlock()
}

// ProviderStats returns the last storage stats each provider reported to a
// repair-loop probe. Entries are nil for providers never probed (healthy
// providers are not pinged, so a fully in-sync cluster reports all nil).
func (c *Client) ProviderStats() []*proto.StatsResponse {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	out := make([]*proto.StatsResponse, len(c.provStat))
	copy(out, c.provStat)
	return out
}

// peekHint returns (without removing) the head of provider p's journal.
func (c *Client) peekHint(p int) ([]byte, bool) {
	c.downMu.Lock()
	defer c.downMu.Unlock()
	h := c.hints[p]
	if len(h.records) == 0 {
		return nil, false
	}
	return h.records[0], true
}

// popHint removes the head of provider p's journal after the provider
// acknowledged it. The WAL copy is only truncated at readmission (reset):
// replay progress within a journal is cheap to redo after a restart, and
// truncating mid-queue would require rewriting the file.
func (c *Client) popHint(p int) {
	c.downMu.Lock()
	defer c.downMu.Unlock()
	h := c.hints[p]
	if len(h.records) > 0 {
		h.records = h.records[1:]
		h.replayed++
	}
}

// setNeedsReseed flags provider p's state as untrusted: readmission must
// re-seed its tables from the healthy quorum instead of verifying them.
func (c *Client) setNeedsReseed(p int) {
	c.downMu.Lock()
	c.hints[p].needsReseed = true
	c.downMu.Unlock()
}

// replayHints replays provider p's queued mutations in order, popping each
// record once p acknowledges it. Returns nil when the journal is drained
// (at the moment of the last pop) and the transport error that interrupted
// replay otherwise. Tolerated remote errors — duplicate row on an insert,
// table-exists on a create, no-such-table on a drop — mean the mutation
// already applied and its ack was lost; any other remote rejection marks
// the provider for re-seeding and skips the record, since wedging the
// journal would strand every later mutation behind an unexplainable one.
func (c *Client) replayHints(p int, stop chan struct{}) error {
	for {
		if stop != nil {
			select {
			case <-stop:
				return errors.New("client: repair stopped")
			default:
			}
		}
		rec, ok := c.peekHint(p)
		if !ok {
			return nil
		}
		msg, err := proto.Decode(rec)
		if err != nil {
			// An undecodable record can only come from a corrupt journal
			// reload; nothing can be replayed from it.
			c.setNeedsReseed(p)
			c.popHint(p)
			continue
		}
		if _, err := c.call(p, msg, noDeadline); err != nil {
			var remote *proto.RemoteError
			if !errors.As(err, &remote) {
				c.markProvider(p, true)
				return err
			}
			if !hintErrorBenign(msg, remote.Code) {
				c.setNeedsReseed(p)
			}
		}
		c.popHint(p)
	}
}

// hintErrorBenign reports whether a remote rejection of a replayed hint
// means "already applied" rather than divergence.
func hintErrorBenign(msg proto.Message, code proto.ErrorCode) bool {
	switch msg.(type) {
	case *proto.InsertRequest:
		return code == proto.CodeDuplicateRow
	case *proto.CreateTableRequest:
		return code == proto.CodeTableExists
	case *proto.DropTableRequest:
		return code == proto.CodeNoSuchTable
	}
	return false
}

// repairProvider drives one recovered provider back to parity. Phase one
// replays the hint journal without the statement lock, so the fleet keeps
// serving while the bulk of the backlog drains. Phase two takes the
// exclusive statement lock — freezing writers and readers — to drain the
// records that raced in meanwhile, prove table state against a healthy
// peer, and clear the lagging flag. New writes physically cannot be
// double-applied around the cutover: appends happen only inside statements
// (which hold the lock at least shared), and the exclusive lock holds them
// off until the provider is readmitted and stops being hinted at all.
func (c *Client) repairProvider(p int, stop chan struct{}) {
	if err := c.replayHints(p, stop); err != nil {
		return // Provider dropped mid-replay; next pass resumes at the head.
	}

	c.mu.Lock()
	defer c.mu.Unlock()

	// Lazy updates would be pushed to a readmitted provider as hints of
	// their own; flush them first so the inline drain below is final.
	for name := range c.pending {
		if err := c.flushTableLocked(name); err != nil {
			return
		}
	}
	if err := c.replayHints(p, stop); err != nil {
		return
	}

	c.downMu.Lock()
	needsReseed := c.hints[p].needsReseed
	var healthy []int
	for i := 0; i < c.opts.N; i++ {
		if i != p && !c.down[i] && !c.hints[i].lagging {
			healthy = append(healthy, i)
		}
	}
	c.downMu.Unlock()
	if len(healthy) == 0 && c.opts.N > 1 {
		return // No peer to trust as a baseline; retry when one returns.
	}

	// Tables the provider holds but the catalog does not know are left in
	// place: drops are journaled (so a drop the provider missed replays
	// above), and scans never touch a table outside the catalog. Sweeping
	// them here would be destructive on a restarted client whose catalog
	// has not been imported yet.

	for _, meta := range c.tables {
		if len(healthy) == 0 {
			// Single-provider fleet (no peer can exist): the drained journal
			// is the whole truth.
			continue
		}
		converged := false
		if !needsReseed {
			match, err := c.tableStateMatches(p, healthy[0], meta.Name)
			if err != nil {
				return // Peer or provider unreachable; retry next pass.
			}
			converged = match
		}
		if !converged {
			if err := c.reseedTable(p, meta); err != nil {
				return
			}
			match, err := c.tableStateMatches(p, healthy[0], meta.Name)
			if err != nil || !match {
				return // Still diverging after a reseed: keep it quarantined.
			}
		}
	}

	// Converged: clear the journal and readmit the provider.
	c.downMu.Lock()
	err := c.hints[p].reset()
	c.down[p] = false
	c.downMu.Unlock()
	_ = err // Journal file reset failure is non-fatal: records were applied.
}

// tableStateMatches compares the provider-neutral resync digests of one
// table on two providers.
func (c *Client) tableStateMatches(p, peer int, table string) (bool, error) {
	dp, err := c.resyncDigest(p, table)
	if err != nil {
		return false, err
	}
	dq, err := c.resyncDigest(peer, table)
	if err != nil {
		return false, err
	}
	if dp == nil || dq == nil {
		return dp == nil && dq == nil, nil
	}
	return dp.Count == dq.Count && string(dp.Root) == string(dq.Root), nil
}

// resyncDigest fetches a provider's whole-table digest; a missing table
// reports as nil rather than an error (the peer decides what that means).
func (c *Client) resyncDigest(provider int, table string) (*proto.DigestResult, error) {
	resp, err := c.call(provider, &proto.TableStateRequest{Table: table}, noDeadline)
	if err != nil {
		var remote *proto.RemoteError
		if errors.As(err, &remote) && remote.Code == proto.CodeNoSuchTable {
			return nil, nil
		}
		return nil, err
	}
	d, ok := resp.(*proto.DigestResult)
	if !ok {
		return nil, fmt.Errorf("%w: provider %d returned %T", ErrInconsistent, provider, resp)
	}
	return d, nil
}

// reseedTable rebuilds one table on provider p from the healthy quorum.
// Because every row's shares lie on one polynomial per value, a provider
// cannot be handed "its" shares of the existing polynomials — the client
// never stored them. Instead the rows are reconstructed, re-shared on
// fresh polynomials, and redistributed: p gets a clean drop/create/insert,
// every healthy peer gets the same rows as an update, and any other
// lagging provider gets the update queued behind its own hints. The caller
// holds the exclusive statement lock, so no statement observes the
// polynomial swap in progress.
func (c *Client) reseedTable(p int, meta *tableMeta) error {
	// No deadline deliberately: repair scans rebuild provider state and
	// must run to completion even when the client bounds its foreground
	// reads with Options.ReadDeadline.
	scan, err := c.scanTable(meta, nil, scanOpts{cols: meta.allCols(), epoch: noEpoch, deadline: noDeadline})
	if err != nil {
		return err
	}
	perProvider, err := c.encodeRowsAt(meta, scan.ids, scan.values)
	if err != nil {
		return err
	}
	if _, err := c.call(p, &proto.DropTableRequest{Table: meta.Name}, noDeadline); err != nil {
		var remote *proto.RemoteError
		if !errors.As(err, &remote) || remote.Code != proto.CodeNoSuchTable {
			return err
		}
	}
	if _, err := c.call(p, &proto.CreateTableRequest{Spec: meta.providerSpec()}, noDeadline); err != nil {
		return err
	}
	if len(scan.ids) > 0 {
		if _, err := c.call(p, &proto.InsertRequest{Table: meta.Name, Rows: perProvider[p]}, noDeadline); err != nil {
			return err
		}
	}
	if len(scan.ids) == 0 {
		return nil
	}
	for i := 0; i < c.opts.N; i++ {
		if i == p {
			continue
		}
		update := &proto.UpdateRequest{Table: meta.Name, Rows: perProvider[i]}
		if c.isLagging(i) {
			_ = c.hintMutation(i, update)
			continue
		}
		if _, err := c.call(i, update, noDeadline); err != nil {
			var remote *proto.RemoteError
			if errors.As(err, &remote) {
				return err
			}
			// Peer dropped mid-reseed: its stale shares are now off the new
			// polynomials, so it must queue the update and go lagging.
			_ = c.hintMutation(i, update)
			c.markProvider(i, true)
		}
	}
	return nil
}
