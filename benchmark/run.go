package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"sssdb/internal/client"
	"sssdb/internal/store"
)

// numWorkers is the closed-loop concurrency of the measured run: the paper's
// data source is one trusted client whose callers wait for their replies,
// and the sandbox has two cores.
const numWorkers = 2

// coldCacheBytes is mixed-cold's page-cache budget for a full-size table:
// 4 MiB against ≈17 MiB of pages per provider. Smaller fixtures scale it,
// with a floor of two default-size pages.
const coldCacheBytes = 4 << 20

// traceSlices is the number of tracer-off/tracer-on pairs the traced run is
// cut into: many short ones of equal length, so that both sides of
// trace.overhead_frac are taken from the same stretches of machine time and
// pay the same start-of-slice costs.
const traceSlices = 20

// plan fixes how long each phase of one run lasts.
type plan struct {
	rows     int
	setups   int           // set-ups timed; the last one is kept
	measure  time.Duration // 2 workers, no wrapper anywhere
	traced   time.Duration // 1 worker, tracer on; as long again with it off
	probeFor time.Duration // time budget of one probe loop after a traced run
}

// env is one set-up system under test: the fleet, the oracle and the
// workers that drive it.
type env struct {
	wl      workload
	root    string // scratch directory holding the provider directories
	f       *fleet
	m       *model
	workers []*worker
}

// setUp starts a fleet under a fresh directory in scratch, loads the
// fixture and warms up: everything a user pays before the first measured
// statement.
func setUp(wl workload, seed int64, rows int, scratch string) (_ *env, err error) {
	root, err := os.MkdirTemp(scratch, wl.name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{wl: wl, root: root, m: newModel(seed, rows)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	dirs, err := newFleetDirs(root, wl.groups)
	if err != nil {
		return nil, err
	}
	var opts store.Options
	if wl.coldCache {
		opts.CacheBytes = max(int64(coldCacheBytes)*int64(rows)/fullRows, 2*store.DefaultPageBytes)
	}
	if e.f, err = openStores(dirs, wl.groups, opts); err != nil {
		return nil, err
	}
	if err := e.f.serve(nil); err != nil {
		return nil, err
	}
	if _, err := e.f.db.Exec(createEmp); err != nil {
		return nil, fmt.Errorf("creating table: %w", err)
	}
	batch := make([][]client.Value, 0, loadBatch)
	for id := 0; id < rows; id += loadBatch {
		batch = batch[:0]
		for _, r := range e.m.base[id:min(id+loadBatch, rows)] {
			batch = append(batch, r.values())
		}
		if _, err := e.f.db.InsertValues("emp", batch); err != nil {
			return nil, fmt.Errorf("loading rows %d..: %w", id, err)
		}
	}
	e.m.indexSalaries()
	e.m.indexDepts()
	for i := 0; i < numWorkers; i++ {
		e.workers = append(e.workers, newWorker(i, numWorkers, seed, e.m))
	}
	// Warm-up shrinks with the fixture, so a smoke run is not mostly warm-up.
	var warm phase
	e.drive(&warm, 1, 0, max(1, wl.warmup*rows/fullRows), nil)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d statements failed: %v", warm.failed, warm.attempted, warm.errs)
	}
	return e, nil
}

func (e *env) close() error {
	var err error
	if e.f != nil {
		err = e.f.close()
	}
	return errors.Join(err, os.RemoveAll(e.root))
}

// usage is what a drive consumed: the growth of every cumulative counter it
// is bracketed by, summed over providers, plus three levels read at its end.
type usage struct {
	bytesSent, bytesRecv, calls uint64 // Client.Stats
	hedges                      uint64 // Client.HedgeStats().Issued
	cpu                         time.Duration
	gcCPU                       float64 // seconds of CPU the collector used
	mallocs, allocBytes         uint64

	// Store.Stats, summed over providers.
	cacheHits, cacheMisses, evictions, writebacks uint64
	walRecords, fsyncs, fsyncNanos, checkpoints   uint64
	shed                                          uint64 // Server.SchedStats

	// Levels, not growth: the worst provider's value when the drive ended.
	checkpointLag, fsyncMaxNanos uint64
	admitWaitP99                 time.Duration
}

// cumulative reads every counter as it stands now.
func (e *env) cumulative() usage {
	wire, hedges := e.f.db.Stats(), e.f.db.HedgeStats()
	u := usage{bytesSent: wire.BytesSent, bytesRecv: wire.BytesReceived, calls: wire.Calls,
		hedges: hedges.Issued, cpu: processCPU()}
	for _, st := range e.f.stores {
		s := st.Stats()
		u.cacheHits += s.CacheHits
		u.cacheMisses += s.CacheMisses
		u.evictions += s.Evictions
		u.writebacks += s.Writebacks
		u.walRecords += s.WALRecords
		u.fsyncs += s.WALFsyncs
		u.fsyncNanos += s.WALFsyncNanos
		u.checkpoints += s.Checkpoints
		u.checkpointLag = max(u.checkpointLag, s.CheckpointLag)
		u.fsyncMaxNanos = max(u.fsyncMaxNanos, s.WALFsyncMaxNano)
	}
	for _, srv := range e.f.servers {
		s := srv.SchedStats()
		u.shed += s.Shed
		u.admitWaitP99 = max(u.admitWaitP99, s.AdmitWaitP99)
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	u.mallocs, u.allocBytes = mem.Mallocs, mem.TotalAlloc
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = gc[0].Value.Float64()
	}
	return u
}

// processCPU returns the user plus system time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// grow adds to u what the counters grew by between the readings from and
// to, and raises u's levels to to's.
func (u *usage) grow(from, to usage) {
	u.bytesSent += to.bytesSent - from.bytesSent
	u.bytesRecv += to.bytesRecv - from.bytesRecv
	u.calls += to.calls - from.calls
	u.hedges += to.hedges - from.hedges
	u.cpu += to.cpu - from.cpu
	u.gcCPU += to.gcCPU - from.gcCPU
	u.mallocs += to.mallocs - from.mallocs
	u.allocBytes += to.allocBytes - from.allocBytes
	u.cacheHits += to.cacheHits - from.cacheHits
	u.cacheMisses += to.cacheMisses - from.cacheMisses
	u.evictions += to.evictions - from.evictions
	u.writebacks += to.writebacks - from.writebacks
	u.walRecords += to.walRecords - from.walRecords
	u.fsyncs += to.fsyncs - from.fsyncs
	u.fsyncNanos += to.fsyncNanos - from.fsyncNanos
	u.checkpoints += to.checkpoints - from.checkpoints
	u.shed += to.shed - from.shed
	u.checkpointLag = max(u.checkpointLag, to.checkpointLag)
	u.fsyncMaxNanos = max(u.fsyncMaxNanos, to.fsyncMaxNanos)
	u.admitWaitP99 = max(u.admitWaitP99, to.admitWaitP99)
}

// phase is what one or more drives of the workload produced.
type phase struct {
	wall      time.Duration
	use       usage
	attempted int
	failed    int
	errs      []string
	lat       [numClasses][]float64 // µs, ascending
	all       []float64             // µs over read, write and txn: every statement once
	firstRow  []float64             // ms, ascending
	peakHeap  uint64                // bytes, max heap in use sampled every 10 ms
	peakGo    int                   // max goroutines at the same instants
	stmts     []string
}

// statements is the number of statements completed: a transaction counts
// once, and its Commit is not counted again.
func (p *phase) statements() int { return len(p.all) }

func (p *phase) opsPerSec() float64 { return float64(p.statements()) / p.wall.Seconds() }

// drive runs the workload closed-loop on the first n workers until the
// duration has passed or, when maxOps > 0, each worker has issued maxOps
// statements, and adds what that produced to p. tr, when non-nil and
// switched on, receives a span per statement.
func (e *env) drive(p *phase, n int, d time.Duration, maxOps int, tr *tracer) {
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		heap := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			p.peakHeap = max(p.peakHeap, heap[0].Value.Uint64()+heap[1].Value.Uint64())
			p.peakGo = max(p.peakGo, runtime.NumGoroutine())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	before, start := e.cumulative(), time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, w := range e.workers[:n] {
		w.db, w.tr = e.f.db, tr
		w.resetPhase()
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := 0; ; i++ {
				if maxOps > 0 && i >= maxOps {
					return
				}
				if maxOps <= 0 && !time.Now().Before(deadline) {
					return
				}
				e.wl.step(w)
			}
		}(w)
	}
	wg.Wait()
	p.wall += time.Since(start)
	p.use.grow(before, e.cumulative())
	close(stop)
	sampler.Wait()

	for _, w := range e.workers[:n] {
		p.attempted += w.attempted
		p.failed += w.failed
		p.errs = append(p.errs, w.errs...)
		for c := range w.lat {
			p.lat[c] = append(p.lat[c], w.lat[c]...)
		}
		p.firstRow = append(p.firstRow, w.firstRow...)
		p.stmts = w.stmts
	}
	p.all = p.all[:0]
	for _, c := range []opClass{classRead, classWrite, classTxn} {
		p.all = append(p.all, p.lat[c]...)
	}
	for c := range p.lat {
		sort.Float64s(p.lat[c])
	}
	sort.Float64s(p.all)
	sort.Float64s(p.firstRow)
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Phases    map[string]float64 `json:"phase_seconds"`
	EndToEnd  metricSet          `json:"end_to_end,omitempty"`
	PerLayer  metricSet          `json:"per_layer,omitempty"`
}

// fail counts n failed checks against the run and keeps their description.
func (r *runResult) fail(n int, what ...string) {
	r.Failed += n
	for _, w := range what {
		if len(r.Errors) < 4*keepErrs {
			r.Errors = append(r.Errors, w)
		}
	}
}

// runWorkload performs the whole protocol for one workload: timed set-ups,
// the measured run, the traced run, the probes, and the oracle and
// durability checks. scratch and traceDir must exist.
func runWorkload(wl workload, seed int64, pl plan, scratch, traceDir string) (*runResult, error) {
	res := &runResult{Workload: wl.name, Seed: seed, Phases: map[string]float64{},
		EndToEnd: metricSet{}, PerLayer: metricSet{}}

	// (1) Set-up, timed each time; the last one is measured.
	var e *env
	var setups []float64
	for i := 0; i < pl.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
		}
		start := time.Now()
		var err error
		if e, err = setUp(wl, seed, pl.rows, scratch); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()

	// (2) Measured run: 2 workers, the fleet exactly as a user would run it.
	// Collecting the discarded set-ups' garbage first starts every run's
	// heap from the same place.
	runtime.GC()
	measured := &phase{}
	e.drive(measured, numWorkers, pl.measure, 0, nil)
	res.Phases["measure"] = measured.wall.Seconds()
	res.Attempted += measured.attempted
	res.fail(measured.failed, measured.errs...)

	// (3) Traced run: the same stores re-served through the timing wrappers,
	// one worker so that spans nest by time. The tracer is switched off and
	// on in alternating slices of equal length: the sandbox's speed drifts by
	// tens of percent within a minute, and only interleaved slices see the
	// same machine. With the tracer off a wrapper costs three atomic
	// operations per call.
	var untraced, traced *phase
	var tr *tracer
	if pl.traced > 0 {
		tr = newTracer()
		if err := e.f.reserve(tr); err != nil {
			return nil, fmt.Errorf("re-serving through the trace wrappers: %w", err)
		}
		untraced, traced = &phase{}, &phase{}
		for i := 0; i < traceSlices; i++ {
			tr.record(false)
			e.drive(untraced, 1, pl.traced/traceSlices, 0, tr)
			tr.record(true)
			e.drive(traced, 1, pl.traced/traceSlices, 0, tr)
		}
		tr.record(false)
		res.Phases["untraced"] = untraced.wall.Seconds()
		res.Phases["traced"] = traced.wall.Seconds()
		for _, p := range []*phase{untraced, traced} {
			res.Attempted += p.attempted
			res.fail(p.failed, p.errs...)
		}
	}

	// (4) Durability first, straight after the last acknowledgement and
	// with every store still open; then the live table against the oracle.
	checks := time.Now()
	dur, err := checkDurability(e, scratch)
	if err != nil {
		return nil, err
	}
	res.Attempted++
	res.fail(dur.failed, dur.errs...)
	if wl.writes {
		res.Attempted++
		if _, err := verifyTable(e.f.db, e.m, e.workers); err != nil {
			res.fail(1, "read-back of the live table: "+err.Error())
		}
	}

	// Space: after a checkpoint, so the directories hold pages and not an
	// arbitrary length of log.
	if err := e.f.checkpointAll(); err != nil {
		return nil, err
	}
	stored, err := e.f.storedBytes()
	if err != nil {
		return nil, err
	}
	liveRows := len(e.m.base)
	for _, w := range e.workers {
		liveRows += len(w.live)
	}
	res.Phases["checks"] = time.Since(checks).Seconds()

	endToEndMetrics(res.EndToEnd, setups, measured, stored, int64(liveRows)*userBytesPerRow, res)
	if traced != nil {
		sum := summarize(tr.snapshot(), traced.wall, len(e.f.stores))
		layerMetrics(res.PerLayer, measured, untraced, traced, &sum, dur)
		start := time.Now()
		if err := probeLayers(res.PerLayer, e, tr, traced.stmts, pl.probeFor, scratch); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		res.Phases["probes"] = time.Since(start).Seconds()
		if v := sum.violations(); v > 0 {
			res.fail(0, fmt.Sprintf("trace does not account for the statements: %d handler spans outside their call, %d calls outside a statement, call shorter than handle for kinds %v",
				sum.unnested, sum.strayCalls, sum.negativeKinds))
		}
		if err := tr.writeFile(filepath.Join(traceDir, "trace-"+wl.name+".json")); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// durability is the outcome of the crash-copy check.
type durability struct {
	failed    int
	errs      []string
	reopenMS  float64
	recovered uint64
}

// checkDurability copies every provider directory as a killed process would
// have left it (the stores are open and are not Closed), opens the copies,
// attaches a client through the exported catalog and requires the table to
// match the model: every acknowledged write readable, nothing else there.
func checkDurability(e *env, scratch string) (*durability, error) {
	d := &durability{}
	catalog, err := e.f.db.ExportCatalog()
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(scratch, e.wl.name+"-crash-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	dirs, err := e.f.crashCopy(root)
	if err != nil {
		return nil, fmt.Errorf("copying provider directories: %w", err)
	}
	start := time.Now()
	reopened, err := openStores(dirs, e.f.groups, e.f.storeOpts)
	if err != nil {
		d.failed++
		d.errs = append(d.errs, "durability: "+err.Error())
		return d, nil
	}
	defer reopened.close()
	d.reopenMS = float64(time.Since(start)) / 1e6
	for _, st := range reopened.stores {
		d.recovered += st.RecoveredRecords()
	}
	if err := reopened.serve(nil); err != nil {
		return nil, err
	}
	if err := reopened.db.ImportCatalog(catalog); err != nil {
		return nil, err
	}
	if n, err := verifyTable(reopened.db, e.m, e.workers); err != nil {
		d.failed++
		d.errs = append(d.errs, fmt.Sprintf("durability: after reading %d rows of the reopened copy: %v", n, err))
	}
	return d, nil
}
