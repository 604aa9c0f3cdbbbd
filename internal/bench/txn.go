package bench

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"sort"
	"sync"
	"time"

	"sssdb/internal/client"
	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

// S7Suite is one transaction-workload run's machine-readable result
// (cmd/ssbench -json writes these to BENCH_S7.json for CI trend tracking).
type S7Suite struct {
	Name      string  `json:"name"`
	Workers   int     `json:"workers"`
	Txns      uint64  `json:"txns"`
	Committed uint64  `json:"committed"`
	Aborted   uint64  `json:"aborted"`
	AbortRate float64 `json:"abort_rate"`
	// Commit percentiles cover successful Commit() calls only — the
	// prepare/commit 2PC round trips, not statement buffering.
	CommitP50Nanos uint64  `json:"commit_p50_ns"`
	CommitP99Nanos uint64  `json:"commit_p99_ns"`
	TxnsPerSec     float64 `json:"txns_per_sec"`
}

// S7Result aggregates the transaction suites.
type S7Result struct {
	Suites []S7Suite `json:"suites"`
}

// txWorkload drives workers*txns transactions through build (which buffers
// statements into the open tx) and measures the commit leg. A worker that
// sees ErrTxAborted counts the abort and moves on; any other error fails
// the run.
func txWorkload(c *client.Client, workers, txns int, build func(tx *client.Tx, w, i int, rng *mrand.Rand) error) (*S7Suite, error) {
	var mu sync.Mutex
	var commitNanos []uint64
	var committed, aborted uint64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := mrand.New(mrand.NewSource(int64(7000 + w)))
			for i := 0; i < txns; i++ {
				tx, err := c.Begin()
				if err != nil {
					errs[w] = err
					return
				}
				if err := build(tx, w, i, rng); err != nil {
					tx.Rollback()
					errs[w] = err
					return
				}
				t0 := time.Now()
				err = tx.Commit()
				d := uint64(time.Since(t0))
				mu.Lock()
				switch {
				case err == nil:
					committed++
					commitNanos = append(commitNanos, d)
				case errors.Is(err, client.ErrTxAborted):
					aborted++
				default:
					mu.Unlock()
					errs[w] = fmt.Errorf("S7 worker %d tx %d: %w", w, i, err)
					return
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	total := uint64(workers * txns)
	if committed+aborted != total {
		return nil, fmt.Errorf("S7: %d committed + %d aborted != %d attempted", committed, aborted, total)
	}
	sort.Slice(commitNanos, func(a, b int) bool { return commitNanos[a] < commitNanos[b] })
	q := func(p float64) uint64 {
		if len(commitNanos) == 0 {
			return 0
		}
		i := int(p * float64(len(commitNanos)-1))
		return commitNanos[i]
	}
	return &S7Suite{
		Workers: workers, Txns: total,
		Committed: committed, Aborted: aborted,
		AbortRate:      float64(aborted) / float64(total),
		CommitP50Nanos: q(0.50), CommitP99Nanos: q(0.99),
		TxnsPerSec: float64(total) / elapsed.Seconds(),
	}, nil
}

// RunS7 renders the transaction study; see RunS7Detailed.
func RunS7(scale Scale) (*Table, error) {
	t, _, err := RunS7Detailed(scale)
	return t, err
}

// RunS7Detailed is the multi-statement transaction study: client-coordinated
// two-phase commit measured as commit-leg latency (p50/p99) and abort rate
// across four suites — disjoint writers (no contention), hot-row updates
// (every tx fights over the same 16 rows), cross-group 2PC through the
// shard router, and a flapping provider under the strict W=N quorum, where
// presumed-abort must turn every unreachable-provider prepare into a clean
// abort while committed transactions stay atomic. Atomicity is asserted
// in-runner: after each suite the table must hold exactly the committed
// transactions' rows.
func RunS7Detailed(scale Scale) (*Table, *S7Result, error) {
	var (
		workers = 4
		txns    = scale.pick(30, 150) // per worker
		hotRows = 16
		rowsPer = 3 // inserts per transaction
	)
	res := &S7Result{}
	t := &Table{
		ID: "S7",
		Title: fmt.Sprintf(
			"supplementary: multi-statement transactions — 2PC commit latency and abort rate (%d workers, %d txns each, %d inserts/txn)",
			workers, txns, rowsPer),
		PaperClaim: "transactional workloads are listed among the capabilities a full DaaS must carry over " +
			"from self-hosted databases (Sec. II); the untrusted-provider split forces the client to " +
			"coordinate atomic commit itself",
		Header: []string{"suite", "txns", "committed", "aborted", "abort rate", "commit p50", "commit p99", "tx/s"},
	}
	record := func(name string, s *S7Suite) {
		s.Name = name
		res.Suites = append(res.Suites, *s)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprint(s.Txns),
			fmt.Sprint(s.Committed),
			fmt.Sprint(s.Aborted),
			fmt.Sprintf("%.1f%%", 100*s.AbortRate),
			fmtDur(time.Duration(s.CommitP50Nanos)),
			fmtDur(time.Duration(s.CommitP99Nanos)),
			fmt.Sprintf("%.0f", s.TxnsPerSec),
		})
	}
	// checkCount polls until every store holds exactly `want` rows of acct —
	// committed transactions fully replicated (the repair loop may still be
	// draining commit hints for a provider that was down at phase 2), aborted
	// ones invisible.
	checkCount := func(f *fleet, want int) error {
		deadline := time.Now().Add(10 * time.Second)
		for {
			ok := true
			got := -1
			for _, st := range f.stores {
				n, err := st.RowCount("acct")
				if err != nil {
					return err
				}
				got = n
				if n != want {
					ok = false
				}
			}
			if ok {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("S7: store holds %d rows of acct, want %d (committed txns x %d rows)", got, want, rowsPer)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	disjointInserts := func(tx *client.Tx, w, i int, rng *mrand.Rand) error {
		base := (w*txns + i) * 100
		for r := 0; r < rowsPer; r++ {
			if _, err := tx.Exec(fmt.Sprintf(`INSERT INTO acct VALUES (%d, %d)`, base+r, rng.Intn(10000))); err != nil {
				return err
			}
		}
		return nil
	}

	// Suite 1 — disjoint writers: every commit is uncontended 2PC.
	f, err := newFleet(3, 2, client.Options{})
	if err != nil {
		return nil, nil, err
	}
	if _, err := f.client.Exec(`CREATE TABLE acct (id INT, bal INT)`); err != nil {
		f.Close()
		return nil, nil, err
	}
	s, err := txWorkload(f.client, workers, txns, disjointInserts)
	if err == nil && s.Aborted > 0 {
		err = fmt.Errorf("S7 disjoint: %d aborts with all providers healthy", s.Aborted)
	}
	if err == nil {
		err = checkCount(f, int(s.Committed)*rowsPer)
	}
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	record("disjoint", s)

	// Suite 2 — hot rows: each tx updates the same handful of rows plus its
	// own inserts, so commits serialize on the table's commit lock.
	f, err = newFleet(3, 2, client.Options{})
	if err != nil {
		return nil, nil, err
	}
	if _, err := f.client.Exec(`CREATE TABLE acct (id INT, bal INT)`); err != nil {
		f.Close()
		return nil, nil, err
	}
	for i := 0; i < hotRows; i++ {
		if _, err := f.client.Exec(fmt.Sprintf(`INSERT INTO acct VALUES (%d, 0)`, 1_000_000+i)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	s, err = txWorkload(f.client, workers, txns, func(tx *client.Tx, w, i int, rng *mrand.Rand) error {
		if _, err := tx.Exec(fmt.Sprintf(`UPDATE acct SET bal = %d WHERE id = %d`,
			rng.Intn(10000), 1_000_000+rng.Intn(hotRows))); err != nil {
			return err
		}
		return disjointInserts(tx, w, i, rng)
	})
	if err == nil && s.Aborted > 0 {
		err = fmt.Errorf("S7 hot-rows: %d aborts with all providers healthy", s.Aborted)
	}
	if err == nil {
		err = checkCount(f, int(s.Committed)*rowsPer+hotRows)
	}
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	record("hot-rows", s)

	// Suite 3 — sharded: ids spread across two provider groups, so every
	// commit is a cross-group 2PC through the shard router.
	sf, err := newShardedFleet(2, 3, 2, client.Options{
		ShardKeys: map[string]string{"acct": "id"},
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := sf.client.Exec(`CREATE TABLE acct (id INT, bal INT)`); err != nil {
		sf.Close()
		return nil, nil, err
	}
	s, err = txWorkload(sf.client, workers, txns, disjointInserts)
	if err == nil && s.Aborted > 0 {
		err = fmt.Errorf("S7 sharded: %d aborts with all providers healthy", s.Aborted)
	}
	if err == nil {
		// Cross-group atomicity: the union of both groups holds exactly the
		// committed rows.
		resq, qerr := sf.client.Exec(`SELECT COUNT(*) FROM acct`)
		if qerr != nil {
			err = qerr
		} else if got := resq.Rows[0][0].Format(); got != fmt.Sprint(int(s.Committed)*rowsPer) {
			err = fmt.Errorf("S7 sharded: COUNT(*) = %s, want %d", got, int(s.Committed)*rowsPer)
		}
	}
	sf.Close()
	if err != nil {
		return nil, nil, err
	}
	record("sharded-2x3", s)

	// Suite 4 — flapping provider under strict W=N: while provider 0 cycles
	// down/up, prepares that cannot reach it abort (presumed-abort), and
	// commits that lose it only at phase 2 heal through the hint journal.
	f, err = newFleet(3, 2, client.Options{RepairInterval: 5 * time.Millisecond})
	if err != nil {
		return nil, nil, err
	}
	if _, err := f.client.Exec(`CREATE TABLE acct (id INT, bal INT)`); err != nil {
		f.Close()
		return nil, nil, err
	}
	stopFlap := make(chan struct{})
	flapDone := make(chan struct{})
	go func() {
		defer close(flapDone)
		// Crash up front and cycle fast: the in-memory 2PC commits in tens of
		// microseconds, so the whole workload spans only a few flap periods.
		for {
			f.faults[0].Crash()
			select {
			case <-stopFlap:
				f.faults[0].Recover()
				return
			case <-time.After(2 * time.Millisecond):
			}
			f.faults[0].Recover()
			select {
			case <-stopFlap:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	s, err = txWorkload(f.client, workers, txns, disjointInserts)
	close(stopFlap)
	<-flapDone
	if err == nil && s.Aborted == 0 {
		err = fmt.Errorf("S7 flaky: provider flapped under W=N yet no transaction aborted")
	}
	if err == nil {
		err = checkCount(f, int(s.Committed)*rowsPer)
	}
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	record("flaky-W=N", s)

	t.Notes = append(t.Notes,
		"commit latency is the Commit() leg only: prepare round + durable commit record + commit round",
		"hot-rows serializes on the per-table commit lock; the p99 gap vs disjoint is lock wait, not provider work",
		"sharded commits prepare both groups and hold both groups' locks across the decision",
		fmt.Sprintf("flaky-W=N: strict quorum turns an unreachable prepare into a clean abort; %d of %d committed, every store converged to exactly the committed rows", res.Suites[3].Committed, res.Suites[3].Txns))
	return t, res, nil
}

// newShardedFleet starts `groups` provider groups of n in-process providers
// each behind one client; S7's sharded suite runs its 2PC across them.
func newShardedFleet(groups, n, k int, opts client.Options) (*fleet, error) {
	f := &fleet{}
	connGroups := make([][]transport.Conn, groups)
	for g := 0; g < groups; g++ {
		for i := 0; i < n; i++ {
			st, err := store.Open("")
			if err != nil {
				return nil, err
			}
			f.stores = append(f.stores, st)
			fc := transport.NewFaulty(transport.NewLocal(server.New(st)))
			f.faults = append(f.faults, fc)
			f.conns = append(f.conns, fc)
			connGroups[g] = append(connGroups[g], fc)
		}
	}
	opts.K = k
	opts.Shards = groups
	if len(opts.MasterKey) == 0 {
		opts.MasterKey = []byte("bench master key")
	}
	c, err := client.NewSharded(connGroups, opts)
	if err != nil {
		return nil, err
	}
	f.client = c
	return f, nil
}
