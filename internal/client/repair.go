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
func (e *engine) ensureRepairLoop() {
	e.repairMu.Lock()
	defer e.repairMu.Unlock()
	if e.repairRunning || e.closed {
		return
	}
	e.repairRunning = true
	e.repairKick = make(chan struct{}, 1)
	e.repairStop = make(chan struct{})
	e.repairDone = make(chan struct{})
	go e.repairLoop(e.repairKick, e.repairStop, e.repairDone)
}

// kickRepair nudges the loop to run a pass now instead of at the next tick.
func (e *engine) kickRepair() {
	e.repairMu.Lock()
	kick := e.repairKick
	e.repairMu.Unlock()
	if kick == nil {
		return
	}
	select {
	case kick <- struct{}{}:
	default:
	}
}

// stopRepairLoop shuts the loop down and waits for it to exit (Close path).
func (e *engine) stopRepairLoop() {
	e.repairMu.Lock()
	e.closed = true
	stop, done := e.repairStop, e.repairDone
	running := e.repairRunning
	e.repairMu.Unlock()
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
	for _, e := range c.groups {
		e.ensureRepairLoop()
		e.kickRepair()
	}
}

// probeState is the per-provider exponential backoff for health probes.
type probeState struct {
	failures int
	next     time.Time
}

// repairLoop wakes on a base ticker (Options.RepairInterval) or an explicit
// kick and runs one repair pass over every lagging provider.
func (e *engine) repairLoop(kick, stop, done chan struct{}) {
	defer close(done)
	probes := make([]probeState, e.opts.N)
	t := time.NewTicker(e.opts.RepairInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-kick:
		case <-t.C:
		}
		for p := 0; p < e.opts.N; p++ {
			select {
			case <-stop:
				return
			default:
			}
			if !e.isLagging(p) {
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
			resp, err := e.call(p, &proto.PingRequest{}, noDeadline)
			if err != nil {
				st.failures++
				shift := st.failures
				if shift > 6 {
					shift = 6
				}
				st.next = time.Now().Add(e.opts.RepairInterval << shift)
				continue
			}
			e.recordStats(p, resp)
			st.failures = 0
			st.next = time.Time{}
			e.repairProvider(p, stop)
		}
	}
}

// recordStats stores the storage stats a provider attached to a ping
// reply. Old servers answer pings with a bare OK; those are ignored.
func (e *engine) recordStats(p int, resp proto.Message) {
	st, ok := resp.(*proto.StatsResponse)
	if !ok {
		return
	}
	e.statMu.Lock()
	e.provStat[p] = st
	e.statMu.Unlock()
}

// ProviderStats returns the last storage stats each provider reported to a
// repair-loop probe, flat g*N+p indexed. Entries are nil for providers never
// probed (healthy providers are not pinged, so a fully in-sync cluster
// reports all nil).
func (c *Client) ProviderStats() []*proto.StatsResponse {
	out := make([]*proto.StatsResponse, 0, len(c.groups)*c.opts.N)
	for _, e := range c.groups {
		e.statMu.Lock()
		out = append(out, e.provStat...)
		e.statMu.Unlock()
	}
	return out
}

// peekHint returns (without removing) the head of provider p's journal.
func (e *engine) peekHint(p int) ([]byte, bool) {
	e.downMu.Lock()
	defer e.downMu.Unlock()
	h := e.hints[p]
	if len(h.records) == 0 {
		return nil, false
	}
	return h.records[0], true
}

// popHint removes the head of provider p's journal after the provider
// acknowledged it. The WAL copy is only truncated at readmission (reset):
// replay progress within a journal is cheap to redo after a restart, and
// truncating mid-queue would require rewriting the file.
func (e *engine) popHint(p int) {
	e.downMu.Lock()
	defer e.downMu.Unlock()
	h := e.hints[p]
	if len(h.records) > 0 {
		h.records = h.records[1:]
		h.replayed++
	}
}

// setNeedsReseed flags provider p's state as untrusted: readmission must
// re-seed its tables from the healthy quorum instead of verifying them.
func (e *engine) setNeedsReseed(p int) {
	e.downMu.Lock()
	e.hints[p].needsReseed = true
	e.downMu.Unlock()
}

// replayHints replays provider p's queued mutations in order, popping each
// record once p acknowledges it. Returns nil when the journal is drained
// (at the moment of the last pop) and the transport error that interrupted
// replay otherwise. Tolerated remote errors — duplicate row on an insert,
// table-exists on a create, no-such-table on a drop — mean the mutation
// already applied and its ack was lost; any other remote rejection marks
// the provider for re-seeding and skips the record, since wedging the
// journal would strand every later mutation behind an unexplainable one.
func (e *engine) replayHints(p int, stop chan struct{}) error {
	for {
		if stop != nil {
			select {
			case <-stop:
				return errors.New("client: repair stopped")
			default:
			}
		}
		rec, ok := e.peekHint(p)
		if !ok {
			return nil
		}
		msg, err := proto.Decode(rec)
		if err != nil {
			// An undecodable record can only come from a corrupt journal
			// reload; nothing can be replayed from it.
			e.setNeedsReseed(p)
			e.popHint(p)
			continue
		}
		if _, err := e.call(p, msg, noDeadline); err != nil {
			var remote *proto.RemoteError
			if !errors.As(err, &remote) {
				e.markProvider(p, true)
				return err
			}
			if !hintErrorBenign(msg, remote.Code) {
				e.setNeedsReseed(p)
			}
		}
		e.popHint(p)
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

	e.downMu.Lock()
	needsReseed := e.hints[p].needsReseed
	var healthy []int
	for i := 0; i < e.opts.N; i++ {
		if i != p && !e.down[i] && !e.hints[i].lagging {
			healthy = append(healthy, i)
		}
	}
	e.downMu.Unlock()
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

	// Converged: clear the journal and readmit the provider.
	e.downMu.Lock()
	err := e.hints[p].reset()
	e.down[p] = false
	e.downMu.Unlock()
	_ = err // Journal file reset failure is non-fatal: records were applied.
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
func (e *engine) reseedTable(p int, meta *tableMeta) error {
	// No deadline deliberately: repair scans rebuild provider state and
	// must run to completion even when the client bounds its foreground
	// reads with Options.ReadDeadline.
	scan, err := e.scanTable(meta, nil, scanOpts{cols: meta.allCols(), epoch: noEpoch, deadline: noDeadline})
	if err != nil {
		return err
	}
	perProvider, err := e.encodeRowsAt(meta, scan.ids, scan.values)
	if err != nil {
		return err
	}
	if _, err := e.call(p, &proto.DropTableRequest{Table: meta.Name}, noDeadline); err != nil {
		var remote *proto.RemoteError
		if !errors.As(err, &remote) || remote.Code != proto.CodeNoSuchTable {
			return err
		}
	}
	if _, err := e.call(p, &proto.CreateTableRequest{Spec: meta.providerSpec()}, noDeadline); err != nil {
		return err
	}
	if len(scan.ids) > 0 {
		if _, err := e.call(p, &proto.InsertRequest{Table: meta.Name, Rows: perProvider[p]}, noDeadline); err != nil {
			return err
		}
	}
	if len(scan.ids) == 0 {
		return nil
	}
	for i := 0; i < e.opts.N; i++ {
		if i == p {
			continue
		}
		update := &proto.UpdateRequest{Table: meta.Name, Rows: perProvider[i]}
		if e.isLagging(i) {
			_ = e.hintMutation(i, update)
			continue
		}
		if _, err := e.call(i, update, noDeadline); err != nil {
			var remote *proto.RemoteError
			if errors.As(err, &remote) {
				return err
			}
			// Peer dropped mid-reseed: its stale shares are now off the new
			// polynomials, so it must queue the update and go lagging.
			_ = e.hintMutation(i, update)
			e.markProvider(i, true)
		}
	}
	return nil
}
