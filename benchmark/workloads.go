package main

import (
	"fmt"
	"math/rand"
	"time"

	"sssdb/internal/client"
)

// workload is one named traffic mix. Later issues refer to these names.
type workload struct {
	name string
	why  string // one line for BENCHMARK.json; the README says more
	// groups is the number of provider groups (1 = plain client).
	groups int
	// coldCache bounds every provider's page cache to a quarter of the
	// table; false leaves the default 64 MiB, which holds all of it.
	coldCache bool
	// warmup is the number of statements run before anything is measured.
	warmup int
	// writes is true when the workload changes the table, so the final
	// state is read back and compared with the model.
	writes bool
	// step runs and checks one statement.
	step func(w *worker)
}

var workloads = []workload{
	{
		name:   "point-read",
		why:    "one-row SELECT by id, table in cache: per-statement fixed costs (parse, plan, frame, probe) do all the work",
		groups: 1, warmup: 2000, step: (*worker).pointRead,
	},
	{
		name:   "scan-stream",
		why:    "2000-row salary range drained through QueryRows, in cache: per-row costs (cursor, chunk codec, reconstruct) do all the work",
		groups: 1, warmup: 40, step: (*worker).scanStream,
	},
	{
		name:   "agg-sharded",
		why:    "GROUP BY over every row on 2 groups x 3 providers: provider compute and the shard router dominate",
		groups: 2, warmup: 20, step: (*worker).aggSharded,
	},
	{
		name:   "write-txn",
		why:    "INSERT/UPDATE/DELETE and two-UPDATE transactions on disjoint keys: share encode, WAL fsync and 2PC rounds dominate",
		groups: 1, warmup: 300, writes: true, step: (*worker).writeTxn,
	},
	{
		name:   "mixed-cold",
		why:    "reads, short ranges and writes with the page cache at a quarter of the table: misses, evictions and write-back under contention",
		groups: 1, coldCache: true, warmup: 500, writes: true, step: (*worker).mixedCold,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// Statement classes a latency sample is filed under.
type opClass int

const (
	classRead   opClass = iota // SELECT, call → result fully drained
	classWrite                 // autocommit INSERT / UPDATE / DELETE
	classCommit                // Tx.Commit alone
	classTxn                   // a whole transaction, Begin → Commit returned
	numClasses
)

var classNames = [numClasses]string{"read", "write", "commit", "txn"}

// worker is one closed-loop caller: it issues its next statement only after
// the previous one returned. Workers share the client but own disjoint key
// sets (ids congruent to the worker's index mod workers), so each can check
// every result it gets against the model without synchronizing.
type worker struct {
	id, workers int
	rng         *rand.Rand
	db          *client.Client
	m           *model
	tr          *tracer // non-nil while statement spans are recorded

	// deck is a shuffled 0..99 the mixed workloads draw their next
	// statement's kind from, reshuffled when used up: every hundred
	// statements hold each kind in exactly its share, so the mix — and with
	// it bytes and time per statement — does not wander with the seed.
	deck    [100]uint8
	deckPos int

	// live holds the ids this worker inserted and has not deleted;
	// nextInsert is the next id it will insert.
	live       []int64
	nextInsert int64

	// Per-phase results, reset by drive.
	lat       [numClasses][]float64 // µs
	firstRow  []float64             // ms
	attempted int
	failed    int
	errs      []string // first few failure descriptions
	stmts     []string // first few statement texts, for the parse probe
}

const (
	keepErrs  = 5
	keepStmts = 256
)

func newWorker(id, workers int, seed int64, m *model) *worker {
	n := int64(len(m.base))
	return &worker{
		id: id, workers: workers, m: m,
		rng:        rand.New(rand.NewSource(seed*7919 + int64(id))),
		nextInsert: n + (int64(id)-n%int64(workers)+int64(workers))%int64(workers),
	}
}

func (w *worker) resetPhase() {
	for c := range w.lat {
		w.lat[c] = w.lat[c][:0]
	}
	w.firstRow = w.firstRow[:0]
	w.attempted, w.failed = 0, 0
	w.errs = nil
}

// draw returns the next slot of the deck, a number in 0..99.
func (w *worker) draw() int {
	if w.deckPos == 0 {
		for i := range w.deck {
			w.deck[i] = uint8(i)
		}
		w.rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
	}
	slot := int(w.deck[w.deckPos])
	w.deckPos = (w.deckPos + 1) % len(w.deck)
	return slot
}

// ownKey draws a uniform loaded id from this worker's key set.
func (w *worker) ownKey() int64 {
	per := (int64(len(w.m.base)) - int64(w.id) + int64(w.workers) - 1) / int64(w.workers)
	return w.rng.Int63n(per)*int64(w.workers) + int64(w.id)
}

func (w *worker) owns(id int64) bool { return id%int64(w.workers) == int64(w.id) }

// record files one finished statement: its latency sample, its statement
// span when tracing, and its verdict.
func (w *worker) record(class opClass, query string, start time.Time, rows int, err error, check func() error) {
	end := time.Now()
	w.attempted++
	w.lat[class] = append(w.lat[class], float64(end.Sub(start))/1e3)
	if w.tr != nil && w.tr.on.Load() {
		w.tr.add(span{Layer: layerClient, Kind: uint8(class), Provider: -1,
			Start: int64(start.Sub(w.tr.epoch)), End: int64(end.Sub(w.tr.epoch)), Rows: int32(rows)})
	}
	if len(w.stmts) < keepStmts {
		w.stmts = append(w.stmts, query)
	}
	if err == nil && check != nil {
		err = check()
	}
	if err != nil {
		w.failed++
		if len(w.errs) < keepErrs {
			w.errs = append(w.errs, fmt.Sprintf("%s: %v", query, err))
		}
	}
}

// pointRead: SELECT name, salary FROM emp WHERE id = <uniform key>.
func (w *worker) pointRead() {
	k := w.rng.Int63n(int64(len(w.m.base)))
	q := fmt.Sprintf("SELECT name, salary FROM emp WHERE id = %d", k)
	start := time.Now()
	res, err := w.db.Exec(q)
	w.record(classRead, q, start, resultRows(res), err, func() error {
		want := w.m.base[k]
		if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
			return fmt.Errorf("got %d rows, want 1", len(res.Rows))
		}
		if got := res.Rows[0]; got[0].S != want.Name || got[1].I != want.Salary {
			return fmt.Errorf("got (%s, %d), want (%s, %d)", got[0].S, got[1].I, want.Name, want.Salary)
		}
		return nil
	})
}

func resultRows(res *client.Result) int {
	if res == nil {
		return 0
	}
	return len(res.Rows)
}

// scanWidth is the salary span of one scan-stream range: 2 % of the salary
// domain, so ≈2 000 of 100 000 rows.
const scanWidth = 2000

// scanStream: a ≈2 000-row salary range through QueryRows, drained.
func (w *worker) scanStream() {
	lo := w.rng.Int63n(salaryMax - scanWidth)
	q := fmt.Sprintf("SELECT * FROM emp WHERE salary BETWEEN %d AND %d", lo, lo+scanWidth)
	start := time.Now()
	rows, err := w.db.QueryRows(q)
	var count int
	var sum uint64
	if err == nil {
		for rows.Next() {
			if count == 0 {
				w.firstRow = append(w.firstRow, float64(time.Since(start))/1e6)
			}
			count++
			r, rerr := rowFromValues(rows.Row())
			if rerr != nil {
				err = rerr
				break
			}
			sum += r.checksum()
		}
		if err == nil {
			err = rows.Err()
		}
		rows.Close()
	}
	w.record(classRead, q, start, count, err, func() error {
		wantCount, wantSum := w.m.salaryRange(lo, lo+scanWidth)
		if count != wantCount || sum != wantSum {
			return fmt.Errorf("got %d rows checksum %x, want %d rows checksum %x", count, sum, wantCount, wantSum)
		}
		return nil
	})
}

const aggQuery = "SELECT dept, SUM(salary), COUNT(*) FROM emp GROUP BY dept"

// aggSharded: a full-table GROUP BY merged across two provider groups.
func (w *worker) aggSharded() {
	start := time.Now()
	res, err := w.db.Exec(aggQuery)
	w.record(classRead, aggQuery, start, resultRows(res), err, func() error {
		wantSum, wantCount := w.m.deptSum, w.m.deptCount
		if len(res.Rows) != numDepts {
			return fmt.Errorf("got %d groups, want %d", len(res.Rows), numDepts)
		}
		for _, row := range res.Rows {
			d := row[0].I
			if d < 0 || d >= numDepts {
				return fmt.Errorf("dept %d does not exist", d)
			}
			if row[1].I != wantSum[d] || row[2].I != wantCount[d] {
				return fmt.Errorf("dept %d: got sum %d count %d, want sum %d count %d",
					d, row[1].I, row[2].I, wantSum[d], wantCount[d])
			}
		}
		return nil
	})
}

func affectedOne(res *client.Result) func() error {
	return func() error {
		if res.Affected != 1 {
			return fmt.Errorf("affected %d rows, want 1", res.Affected)
		}
		return nil
	}
}

// insertOwn inserts the worker's next fresh row.
func (w *worker) insertOwn() {
	r := rowAt(w.m.seed, w.nextInsert)
	w.nextInsert += int64(w.workers)
	q := fmt.Sprintf("INSERT INTO emp VALUES (%d, '%s', %d, %d)", r.ID, r.Name, r.Salary, r.Dept)
	start := time.Now()
	res, err := w.db.Exec(q)
	w.record(classWrite, q, start, 0, err, affectedOne(res))
	if err == nil {
		w.live = append(w.live, r.ID)
	}
}

// writeTxn: 40 % INSERT, 30 % UPDATE by id, 10 % DELETE of an own insert,
// 20 % a transaction of two UPDATEs.
func (w *worker) writeTxn() {
	switch p := w.draw(); {
	case p < 40 || (p >= 70 && p < 80 && len(w.live) == 0):
		w.insertOwn()
	case p < 70:
		k, salary := w.ownKey(), w.rng.Int63n(salaryMax)
		q := fmt.Sprintf("UPDATE emp SET salary = %d WHERE id = %d", salary, k)
		start := time.Now()
		res, err := w.db.Exec(q)
		w.record(classWrite, q, start, 0, err, affectedOne(res))
		if err == nil {
			w.m.base[k].Salary = salary
		}
	case p < 80:
		i := w.rng.Intn(len(w.live))
		q := fmt.Sprintf("DELETE FROM emp WHERE id = %d", w.live[i])
		start := time.Now()
		res, err := w.db.Exec(q)
		w.record(classWrite, q, start, 0, err, affectedOne(res))
		if err == nil {
			w.live[i] = w.live[len(w.live)-1]
			w.live = w.live[:len(w.live)-1]
		}
	default:
		k1, k2 := w.ownKey(), w.ownKey()
		for k2 == k1 {
			k2 = w.ownKey()
		}
		s1, s2 := w.rng.Int63n(salaryMax), w.rng.Int63n(salaryMax)
		q1 := fmt.Sprintf("UPDATE emp SET salary = %d WHERE id = %d", s1, k1)
		q2 := fmt.Sprintf("UPDATE emp SET salary = %d WHERE id = %d", s2, k2)
		start := time.Now()
		tx, err := w.db.Begin()
		if err == nil {
			_, err = tx.Exec(q1)
		}
		if err == nil {
			_, err = tx.Exec(q2)
		}
		if err == nil {
			commit := time.Now()
			err = tx.Commit()
			w.lat[classCommit] = append(w.lat[classCommit], float64(time.Since(commit))/1e3)
		}
		w.record(classTxn, q1, start, 0, err, nil)
		if err == nil {
			w.m.base[k1].Salary, w.m.base[k2].Salary = s1, s2
		}
	}
}

// Short unclustered range of mixed-cold.
const (
	coldRangeWidth = 100
	coldRangeLimit = 20
	limitSlack     = 2 // see checkColdRange
)

// mixedCold: 70 % point read, 5 % short salary range with LIMIT, 20 %
// UPDATE by id, 5 % INSERT, uniform over the worker's keys. UPDATE changes
// dept, so the salary index of the model stays valid for the range check.
func (w *worker) mixedCold() {
	switch p := w.draw(); {
	case p < 70:
		k := w.ownKey()
		q := fmt.Sprintf("SELECT name, salary, dept FROM emp WHERE id = %d", k)
		start := time.Now()
		res, err := w.db.Exec(q)
		w.record(classRead, q, start, resultRows(res), err, func() error {
			want := w.m.base[k]
			if len(res.Rows) != 1 {
				return fmt.Errorf("got %d rows, want 1", len(res.Rows))
			}
			if got := res.Rows[0]; got[0].S != want.Name || got[1].I != want.Salary || got[2].I != want.Dept {
				return fmt.Errorf("got (%s, %d, %d), want (%s, %d, %d)",
					got[0].S, got[1].I, got[2].I, want.Name, want.Salary, want.Dept)
			}
			return nil
		})
	case p < 75:
		lo := w.rng.Int63n(salaryMax - coldRangeWidth)
		hi := lo + coldRangeWidth
		q := fmt.Sprintf("SELECT * FROM emp WHERE salary BETWEEN %d AND %d LIMIT %d", lo, hi, coldRangeLimit)
		start := time.Now()
		res, err := w.db.Exec(q)
		w.record(classRead, q, start, resultRows(res), err, func() error { return w.checkColdRange(res, lo, hi) })
	case p < 95:
		k, dept := w.ownKey(), w.rng.Int63n(numDepts)
		q := fmt.Sprintf("UPDATE emp SET dept = %d WHERE id = %d", dept, k)
		start := time.Now()
		res, err := w.db.Exec(q)
		w.record(classWrite, q, start, 0, err, affectedOne(res))
		if err == nil {
			w.m.base[k].Dept = dept
		}
	default:
		w.insertOwn()
	}
}

// checkColdRange verifies a LIMITed salary range taken while the other
// worker writes: which matching rows come back is unspecified, so every
// returned row must be a row the table can hold with its salary in range,
// and the LIMIT must be filled whenever the loaded rows alone can fill it —
// less limitSlack: each provider applies the LIMIT itself, and a row an
// UPDATE has reached at one of the two providers read but not yet the other
// is dropped by the client, so a range racing the other worker's UPDATE can
// come back a row short. (Seen once in ≈6 000 ranges; counted here as the
// system's documented behaviour, not as a wrong answer.)
func (w *worker) checkColdRange(res *client.Result, lo, hi int64) error {
	loaded, _ := w.m.salaryRange(lo, hi)
	if len(res.Rows) > coldRangeLimit || len(res.Rows) < min(coldRangeLimit, loaded)-limitSlack {
		return fmt.Errorf("got %d rows with %d loaded rows in range and LIMIT %d", len(res.Rows), loaded, coldRangeLimit)
	}
	for _, vals := range res.Rows {
		got, err := rowFromValues(vals)
		if err != nil {
			return err
		}
		want := rowAt(w.m.seed, got.ID)
		if got.ID < int64(len(w.m.base)) && w.owns(got.ID) {
			want = w.m.base[got.ID]
		} else if got.ID < int64(len(w.m.base)) {
			// Another worker's row: its dept may be changing right now.
			want.Dept = got.Dept
		}
		if got != want || got.Salary < lo || got.Salary > hi || got.Dept < 0 || got.Dept >= numDepts {
			return fmt.Errorf("row %+v, want %+v with salary in [%d, %d]", got, want, lo, hi)
		}
	}
	return nil
}

// verifyTable reads the whole table back through db and compares it with
// the model and the workers' live inserts: every acknowledged write must be
// there and nothing else. It returns the rows read and a description of the
// first mismatch.
func verifyTable(db *client.Client, m *model, workers []*worker) (int, error) {
	live := make(map[int64]bool)
	for _, w := range workers {
		for _, id := range w.live {
			live[id] = true
		}
	}
	want := len(m.base) + len(live)
	rows, err := db.QueryRows("SELECT * FROM emp")
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	seen := 0
	for rows.Next() {
		got, err := rowFromValues(rows.Row())
		if err != nil {
			return seen, err
		}
		seen++
		switch {
		case got.ID >= 0 && got.ID < int64(len(m.base)):
			if got != m.base[got.ID] {
				return seen, fmt.Errorf("row %d is %+v, want %+v", got.ID, got, m.base[got.ID])
			}
		case live[got.ID]:
			if want := rowAt(m.seed, got.ID); got != want {
				return seen, fmt.Errorf("inserted row %d is %+v, want %+v", got.ID, got, want)
			}
			delete(live, got.ID) // a duplicate would now read as unexpected
		default:
			return seen, fmt.Errorf("unexpected row %+v (deleted, duplicated or never written)", got)
		}
	}
	if err := rows.Err(); err != nil {
		return seen, err
	}
	if seen != want {
		return seen, fmt.Errorf("table holds %d rows, want %d", seen, want)
	}
	return seen, nil
}
