package bench

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sssdb/internal/client"
	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

// newShardedFleet starts `groups` provider groups of n in-process providers
// each behind one client (groups=1 is the baseline the scaling rows
// compare against).
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

// RunS4 is the horizontal-sharding scaling study: the same table, row
// count, and mixed workload (60% point SELECT on the shard key, 20%
// INSERT, 10% range scan, 10% point UPDATE, 8 concurrent workers) run
// against 1, 2, and 4 provider groups. Point statements route to a single
// group, so both the client-side statement locks and the provider-side
// B+-tree work spread across groups; scatter statements (the full scan
// column) run one per-group scan concurrently and merge.
func RunS4(scale Scale) (*Table, error) {
	rows := scale.pick(6_000, 30_000)
	ops := scale.pick(2_000, 12_000)
	const workers = 8
	t := &Table{
		ID: "S4",
		Title: fmt.Sprintf(
			"supplementary: horizontal sharding scatter-gather scaling (n=3, k=2 per group, %d rows, %d mixed ops, %d workers)",
			rows, ops, workers),
		PaperClaim: "a DaaS provider scales beyond one quorum by partitioning the row space across provider groups",
		Header:     []string{"groups", "mixed ops/s", "speedup", "full scan", "scan speedup", "COUNT(*)"},
	}
	var baseOps, baseScan float64
	for _, groups := range []int{1, 2, 4} {
		f, err := newShardedFleet(groups, 3, 2, client.Options{
			ShardKeys: map[string]string{"emp": "id"},
		})
		if err != nil {
			return nil, err
		}
		if _, err := f.client.Exec(`CREATE TABLE emp (id INT, salary INT, dept INT)`); err != nil {
			f.Close()
			return nil, err
		}
		rng := mrand.New(mrand.NewSource(41))
		load := make([][]client.Value, rows)
		for i := range load {
			load[i] = []client.Value{
				client.IntValue(int64(i + 1)),
				client.IntValue(rng.Int63n(100_000)),
				client.IntValue(rng.Int63n(20)),
			}
		}
		if err := f.load("emp", load); err != nil {
			f.Close()
			return nil, err
		}

		var nextID atomic.Int64
		nextID.Store(int64(rows))
		errs := make([]error, workers)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wrng := mrand.New(mrand.NewSource(int64(1000 + w)))
				for i := w; i < ops; i += workers {
					var q string
					switch r := wrng.Intn(10); {
					case r < 6: // point SELECT on the shard key
						q = fmt.Sprintf(`SELECT salary FROM emp WHERE id = %d`, 1+wrng.Intn(rows))
					case r < 8: // INSERT a fresh row
						q = fmt.Sprintf(`INSERT INTO emp VALUES (%d, %d, %d)`,
							nextID.Add(1), wrng.Intn(100_000), wrng.Intn(20))
					case r < 9: // narrow range scan (scatter)
						lo := wrng.Intn(99_000)
						q = fmt.Sprintf(`SELECT id FROM emp WHERE salary BETWEEN %d AND %d`, lo, lo+500)
					default: // point UPDATE on the shard key
						q = fmt.Sprintf(`UPDATE emp SET salary = %d WHERE id = %d`,
							wrng.Intn(100_000), 1+wrng.Intn(rows))
					}
					if _, err := f.client.Exec(q); err != nil {
						errs[w] = fmt.Errorf("S4 worker %d: %s: %w", w, q, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if err := errors.Join(errs...); err != nil {
			f.Close()
			return nil, err
		}
		opsPerSec := float64(ops) / elapsed.Seconds()

		scanDur, err := timeIt(func() error {
			_, err := f.client.Exec(`SELECT id, salary FROM emp`)
			return err
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		countDur, err := timeIt(func() error {
			_, err := f.client.Exec(`SELECT COUNT(*) FROM emp`)
			return err
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Close()

		scanRate := 1 / scanDur.Seconds()
		if groups == 1 {
			baseOps, baseScan = opsPerSec, scanRate
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(groups),
			fmt.Sprintf("%.0f", opsPerSec),
			fmtRatio(opsPerSec, baseOps),
			fmtDur(scanDur),
			fmtRatio(scanRate, baseScan),
			fmtDur(countDur),
		})
	}
	t.Notes = append(t.Notes,
		"point statements route to one group: G groups run G statements (and their share decodes) concurrently",
		"the full scan fans one per-group scan out in parallel and concatenates; COUNT(*) merges per-group partials",
		"the 1-group row is a plain (unsharded) client — the baseline the speedup columns divide by")
	return t, nil
}
