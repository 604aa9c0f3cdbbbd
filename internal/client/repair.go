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
	"time"

	"sssdb/internal/proto"
)

// ensureRepairLoop starts the background repair goroutine if it is not
// already running. Called whenever a hint is queued.
func (e *engine) ensureRepairLoop() {
	e.repairMu.Lock()
	defer e.repairMu.Unlock()
	if e.repairDone != nil || e.closed {
		return
	}
	e.repairDone = make(chan struct{})
	go e.repairLoop(e.repairDone)
}

// kickRepair nudges the loop to run a pass now instead of at the next tick.
func (e *engine) kickRepair() {
	select {
	case e.repairKick <- struct{}{}:
	default:
	}
}

// stopRepairLoop shuts the loop down and waits for it to exit (Close path).
func (e *engine) stopRepairLoop() {
	e.repairMu.Lock()
	done := e.repairDone
	e.repairDone, e.closed = nil, true
	e.repairMu.Unlock()
	if done != nil {
		close(e.repairStop)
		<-done
	}
}

// RepairNow kicks the repair loop into a pass that probes every lagging
// provider now, ignoring the backoff of failed probes: whoever asks has
// reason to think a provider is back. Tests and experiments use it to bound
// time-to-convergence measurements from below instead of waiting out a probe
// interval.
func (c *Client) RepairNow() {
	c.eachProvider(func(_ int, p *provider) { p.probeNext = time.Time{} })
	for _, e := range c.groups {
		e.ensureRepairLoop()
		e.kickRepair()
	}
}

// repairLoop wakes on a base ticker (Options.RepairInterval) or an explicit
// kick and runs one repair pass over every lagging provider.
func (e *engine) repairLoop(done chan struct{}) {
	defer close(done)
	kick, stop := e.repairKick, e.repairStop
	t := time.NewTicker(e.opts.RepairInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-kick:
		case <-t.C:
		}
		for p, pr := range e.provs {
			select {
			case <-stop:
				return
			default:
			}
			if !pr.probeDue() {
				continue
			}
			// Lightweight liveness probe before committing to a replay.
			resp, err := e.call(p, &proto.PingRequest{}, noDeadline)
			if pr.probed(resp, err, e.opts.RepairInterval) {
				e.repairProvider(p, stop)
			}
		}
	}
}

// probeDue reports whether the repair loop should ping the provider now: it
// is lagging and not backing off. (Only an answered ping leads to
// readmission, and it clears the backoff.)
func (p *provider) probeDue() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hints.lagging && !time.Now().Before(p.probeNext)
}

// probed records a ping's outcome and reports whether the provider answered.
// The storage stats attached to the reply are kept for ProviderStats; a
// provider that cannot even answer a ping backs the probe off exponentially
// (capped at 64x the base interval) so a long outage does not burn a
// connection attempt every tick.
func (p *provider) probed(resp proto.Message, err error, interval time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.probeFails++
		p.probeNext = time.Now().Add(interval << min(p.probeFails, 6))
		return false
	}
	if st, ok := resp.(*proto.StatsResponse); ok {
		p.stats = st
	}
	p.probeFails, p.probeNext = 0, time.Time{}
	return true
}

// ProviderStats returns the last storage stats each provider reported to a
// repair-loop probe, flat g*N+p indexed. Entries are nil for providers never
// probed (healthy providers are not pinged, so a fully in-sync cluster
// reports all nil).
func (c *Client) ProviderStats() []*proto.StatsResponse {
	out := make([]*proto.StatsResponse, 0, len(c.groups)*c.opts.N)
	c.eachProvider(func(_ int, p *provider) { out = append(out, p.stats) })
	return out
}

// headHint returns (without removing) the head of the provider's journal.
func (p *provider) headHint() ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.hints.records) == 0 {
		return nil, false
	}
	return p.hints.records[0], true
}

// popHint removes the head of the journal once the provider has answered
// it. reseed flags the provider's state as untrusted: readmission must then
// re-seed its tables from the healthy quorum instead of verifying them. The
// WAL copy is only truncated at readmission (reset): replay progress within a
// journal is cheap to redo after a restart, and truncating mid-queue would
// require rewriting the file.
func (p *provider) popHint(reseed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hints.records = p.hints.records[1:]
	p.hints.needsReseed = p.hints.needsReseed || reseed
}

// replayHints replays provider p's queued mutations in order, popping each
// record once p answers it. Returns nil when the journal is drained (at the
// moment of the last pop) and the transport error that interrupted replay
// otherwise. Tolerated rejections — duplicate row on an insert, table-exists
// on a create, no-such-table on a drop — mean the mutation already applied
// and its ack was lost; any other rejection, like a record that does not
// decode (a corrupt journal reload), marks the provider for re-seeding and
// skips the record, since wedging the journal would strand every later
// mutation behind an unexplainable one.
func (e *engine) replayHints(p int, stop chan struct{}) error {
	pr := e.provs[p]
	for {
		select {
		case <-stop:
			return errors.New("client: repair stopped")
		default:
		}
		rec, ok := pr.headHint()
		if !ok {
			return nil
		}
		msg, err := proto.Decode(rec)
		if err != nil {
			pr.popHint(true)
			continue
		}
		_, err = e.call(p, msg, noDeadline)
		code, answered := remoteCode(err)
		if err != nil && !answered {
			return err
		}
		pr.popHint(answered && !hintErrorBenign(msg, code))
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
func (e *engine) repairProvider(p int, stop chan struct{}) {
	if err := e.replayHints(p, stop); err != nil {
		return // Provider dropped mid-replay; next pass resumes at the head.
	}

	e.mu.Lock()
	defer e.mu.Unlock()

	// Lazy updates would be pushed to a readmitted provider as hints of
	// their own; flush them first so the inline drain below is final.
	for name := range e.pending {
		if err := e.flushTableLocked(name); err != nil {
			return
		}
	}
	if err := e.replayHints(p, stop); err != nil {
		return
	}

	pr := e.provs[p]
	pr.mu.Lock()
	needsReseed := pr.hints.needsReseed
	pr.mu.Unlock()
	var healthy []int
	for i, peer := range e.provs {
		if tier, _ := peer.standing(time.Now()); i != p && tier == 0 {
			healthy = append(healthy, i)
		}
	}
	if len(healthy) == 0 && e.opts.N > 1 {
		return // No peer to trust as a baseline; retry when one returns.
	}

	// Tables the provider holds but the catalog does not know are left in
	// place: drops are journaled (so a drop the provider missed replays
	// above), and scans never touch a table outside the catalog. Sweeping
	// them here would be destructive on a restarted client whose catalog
	// has not been imported yet.

	for _, meta := range e.cat.list() {
		if len(healthy) == 0 {
			// Single-provider fleet (no peer can exist): the drained journal
			// is the whole truth.
			continue
		}
		converged := false
		if !needsReseed {
			match, err := e.tableStateMatches(p, healthy[0], meta.Name)
			if err != nil {
				return // Peer or provider unreachable; retry next pass.
			}
			converged = match
		}
		if !converged {
			if err := e.reseedTable(p, meta); err != nil {
				return
			}
			match, err := e.tableStateMatches(p, healthy[0], meta.Name)
			if err != nil || !match {
				return // Still diverging after a reseed: keep it quarantined.
			}
		}
	}

	// Converged: clearing the journal readmits the provider. A journal file
	// reset failure is non-fatal: the records were applied.
	pr.mu.Lock()
	_ = pr.hints.reset()
	pr.mu.Unlock()
}

// tableStateMatches compares the provider-neutral resync digests of one
// table on two providers.
func (e *engine) tableStateMatches(p, peer int, table string) (bool, error) {
	dp, err := e.resyncDigest(p, table)
	if err != nil {
		return false, err
	}
	dq, err := e.resyncDigest(peer, table)
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
func (e *engine) resyncDigest(provider int, table string) (*proto.DigestResult, error) {
	resp, err := e.call(provider, &proto.TableStateRequest{Table: table}, noDeadline)
	if code, ok := remoteCode(err); ok && code == proto.CodeNoSuchTable {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return as[*proto.DigestResult](provider, resp)
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
func (e *engine) reseedTable(p int, meta *tableMeta) error {
	// No deadline deliberately: repair scans rebuild provider state and
	// must run to completion even when the client bounds its foreground
	// reads with Options.ReadDeadline.
	scan, err := e.scanTable(meta, nil, scanOpts{fetch: meta.fetchPlan(meta.allCols()), epoch: noEpoch, deadline: noDeadline})
	if err != nil {
		return err
	}
	perProvider, err := e.encodeRowsAt(meta, scan.ids, scan.values)
	if err != nil {
		return err
	}
	_, err = e.call(p, &proto.DropTableRequest{Table: meta.Name}, noDeadline)
	if code, ok := remoteCode(err); err != nil && !(ok && code == proto.CodeNoSuchTable) {
		return err
	}
	if _, err := e.call(p, &proto.CreateTableRequest{Spec: meta.providerSpec()}, noDeadline); err != nil {
		return err
	}
	if len(scan.ids) == 0 {
		return nil
	}
	if _, err := e.call(p, &proto.InsertRequest{Table: meta.Name, Rows: perProvider[p]}, noDeadline); err != nil {
		return err
	}
	update := func(i int) proto.Message {
		return &proto.UpdateRequest{Table: meta.Name, Rows: perProvider[i]}
	}
	var peers []int
	for i, peer := range e.provs {
		switch {
		case i == p:
		case peer.lagging():
			e.hint(i, update(i))
		default:
			peers = append(peers, i)
		}
	}
	t := round(peers, e.deliver(update))
	// A peer that dropped mid-reseed holds stale shares, off the new
	// polynomials: it queues the update and goes lagging.
	for _, i := range t.unreached {
		e.hint(i, update(i))
	}
	return t.rejection
}
