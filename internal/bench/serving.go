package bench

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"sssdb/internal/loadgen"
	"sssdb/internal/proto"
	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
	"sssdb/internal/workload"
)

// S6Suite is one serving-load run's machine-readable result (cmd/ssbench
// -json writes these to BENCH_S6.json for CI trend tracking).
type S6Suite struct {
	Name        string  `json:"name"`
	Mix         string  `json:"mix"`
	OfferedRate float64 `json:"offered_rate_ops"`
	Offered     uint64  `json:"offered"`
	Completed   uint64  `json:"completed"`
	Busy        uint64  `json:"busy"`
	Failed      uint64  `json:"failed"`
	Dropped     uint64  `json:"dropped"`
	GoodputOPS  float64 `json:"goodput_ops"`
	P50Nanos    uint64  `json:"p50_ns"`
	P99Nanos    uint64  `json:"p99_ns"`
	P999Nanos   uint64  `json:"p999_ns"`
	// Server-side admission counters aggregated across providers for this
	// suite's window.
	SchedAdmitted uint64 `json:"sched_admitted"`
	SchedShed     uint64 `json:"sched_shed"`
}

// S6Result aggregates the three serving suites plus the derived
// saturation point the overload acceptance criteria are checked against.
type S6Result struct {
	SaturationGoodput float64   `json:"saturation_goodput_ops"`
	SaturationP99     uint64    `json:"saturation_p99_ns"`
	OverloadFactor    float64   `json:"overload_factor"`
	Suites            []S6Suite `json:"suites"`
}

// pacedHandler imposes a deterministic service rate on a provider so the
// S6 acceptance thresholds hold on slow CI machines and fast workstations
// alike. Requests take a token from a bucket refilled at exactly one
// token per slot of *wall-clock* time: the refiller sleeps roughly a slot
// and then deposits however many slots actually elapsed, so timer
// overshoot (which on a loaded single-core box is several milliseconds
// and grows with offered load) changes burstiness but never the rate.
// Sleeping per request instead would add that load-dependent overshoot
// to every op and move the measured capacity between the probe and
// overload runs. The bucket bound keeps an idle period from banking
// unlimited free slots. Streaming passes through so scan chunking still
// engages.
type pacedHandler struct {
	h      transport.Handler
	tokens chan struct{}
	stop   chan struct{}
}

func newPacedHandler(h transport.Handler, slot time.Duration) *pacedHandler {
	// The bucket holds a full second of slots: when CPU contention stalls
	// the scheduler workers (on a one-core box the in-process load
	// generator competes with the servers), the banked tokens let them
	// catch back up, so a stall moves burstiness but not the measured
	// rate. Suites drain the bucket before starting (resetPace) so credit
	// banked between suites cannot inflate the next measurement.
	p := &pacedHandler{h: h, tokens: make(chan struct{}, int(time.Second/slot)), stop: make(chan struct{})}
	go func() {
		grant := time.Now()
		for {
			select {
			case <-p.stop:
				return
			default:
			}
			time.Sleep(slot)
			now := time.Now()
			for ; grant.Add(slot).Before(now); grant = grant.Add(slot) {
				select {
				case p.tokens <- struct{}{}:
				default: // bucket full; idle capacity is forfeited
				}
			}
		}
	}()
	return p
}

func (p *pacedHandler) pace() {
	select {
	case <-p.tokens:
	case <-p.stop:
	}
}

func (p *pacedHandler) close() { close(p.stop) }

func (p *pacedHandler) resetPace() {
	for {
		select {
		case <-p.tokens:
		default:
			return
		}
	}
}

func (p *pacedHandler) Handle(req proto.Message) proto.Message {
	p.pace()
	return p.h.Handle(req)
}

func (p *pacedHandler) HandleStream(req proto.Message, emit func(*proto.RowsResponse) error) (bool, error) {
	// The transport offers every request to the streaming path first and
	// falls back to Handle when the stream is declined — so pace only
	// requests the provider will actually stream (every scan, verified or
	// not). Paying a token here for a request that then falls back to Handle
	// would charge it twice, halving measured write capacity.
	sh, ok := p.h.(transport.StreamHandler)
	if _, isScan := req.(*proto.ScanRequest); !ok || !isScan {
		return false, nil
	}
	p.pace()
	return sh.HandleStream(req, emit)
}

// servingFleet is a set of real TCP providers behind the admission
// scheduler. S6 builds its own servers rather than using NewLocal because
// it sets each one's ServerConfig (inflight budget, queue bound, tenant
// weights), paces its handler, and reads its SchedStats directly.
type servingFleet struct {
	stores  []*store.Store
	servers []*transport.Server
	pacers  []*pacedHandler
	addrs   []string
}

func newServingFleet(n int, slot time.Duration, cfg transport.ServerConfig) (*servingFleet, error) {
	f := &servingFleet{}
	for i := 0; i < n; i++ {
		st, err := store.Open("")
		if err != nil {
			f.Close()
			return nil, err
		}
		f.stores = append(f.stores, st)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, err
		}
		h := newPacedHandler(server.New(st), slot)
		f.pacers = append(f.pacers, h)
		srv := transport.NewServerWith(ln, h, cfg)
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, srv.Addr().String())
	}
	return f, nil
}

func (f *servingFleet) Close() {
	for _, p := range f.pacers {
		p.close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, st := range f.stores {
		st.Close()
	}
}

// schedTotals sums admitted/shed across the fleet's schedulers.
func (f *servingFleet) schedTotals() (admitted, shed uint64) {
	for _, s := range f.servers {
		st := s.SchedStats()
		admitted += st.Admitted
		shed += st.Shed
	}
	return admitted, shed
}

func s6Key(k uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], k)
	return b[:]
}

// s6Exec maps one workload op to a provider request, round-robin across
// the fleet. A provider-side ErrorResponse is surfaced as its RemoteError
// so loadgen's busy classification sees CodeServerBusy.
func s6Exec(conns []transport.Conn, rr *atomic.Uint64, payload []byte, scanLimit uint64, op workload.Op) error {
	c := conns[rr.Add(1)%uint64(len(conns))]
	var req proto.Message
	switch op.Kind {
	case workload.OpWrite:
		req = &proto.UpdateRequest{Table: "kv", Rows: []proto.Row{{ID: op.Key, Cells: [][]byte{s6Key(op.Key), payload}}}}
	case workload.OpScan:
		req = &proto.ScanRequest{Table: "kv", Filter: &proto.Filter{
			Col: "k", Op: proto.FilterRange, Lo: s6Key(op.Key), Hi: s6Key(op.Key + scanLimit - 1),
		}, Limit: scanLimit}
	default:
		req = &proto.ScanRequest{Table: "kv", Filter: &proto.Filter{
			Col: "k", Op: proto.FilterEq, Lo: s6Key(op.Key),
		}, Limit: 1}
	}
	resp, err := c.Call(req)
	if err != nil {
		return err
	}
	if er, ok := resp.(*proto.ErrorResponse); ok {
		return er.Err()
	}
	return nil
}

// RunS6 renders the sustained-load serving study; see RunS6Detailed.
func RunS6(scale Scale) (*Table, error) {
	t, _, err := RunS6Detailed(scale)
	return t, err
}

// RunS6Detailed is the sustained-load serving study over real TCP
// providers with server-wide admission control: an open-loop saturation
// probe establishes the fleet's goodput ceiling and at-saturation tail
// latency, an overload run offers 4x that goodput and must show graceful
// shedding — admitted-request p99 within 3x the at-saturation p99 and
// goodput within 20% of the ceiling — and a streaming-scan suite runs
// long chunked scans against background point queries under tenant-fair
// scheduling. The acceptance criteria are asserted in-runner: a scheduler
// regression fails the benchmark rather than quietly shifting numbers.
func RunS6Detailed(scale Scale) (*Table, *S6Result, error) {
	var (
		nProviders = 3
		// Each provider serves one request per slot of wall-clock time (see
		// pacedHandler). The slot is deliberately coarse: the load
		// generator, client stack, and servers all share this machine's
		// CPUs (possibly just one), and every offered op — including the
		// ones the server sheds in microseconds — costs the full
		// client-side request path. Capacity must be small enough that 4x
		// that capacity in offered load still leaves the CPU mostly idle,
		// or the harness would be measuring its own scheduling delays
		// instead of the admission controller.
		slot     = 100 * time.Millisecond
		inflight = scale.pick(2, 4)
		nRows    = scale.pick(2_000, 20_000)
		// Long windows amortize the backlog spill at the window boundary
		// (completions of late-window arrivals land after it) so the
		// probe/overload goodput comparison is not dominated by tails.
		probeDur = time.Duration(scale.pick(3000, 4000)) * time.Millisecond
		loadDur  = time.Duration(scale.pick(4000, 6000)) * time.Millisecond
		workers  = scale.pick(64, 128)
	)
	// Deterministic capacity: one request per slot per provider.
	capacity := float64(nProviders) * float64(time.Second) / float64(slot)

	fleet, err := newServingFleet(nProviders, slot, transport.ServerConfig{
		MaxInflight: inflight,
		// A shallow queue keeps the admitted-request tail tight: at full
		// queue the wait is MaxQueue×slot per provider, which is what the
		// 3x-p99 overload bound exercises.
		MaxQueue: 4,
	})
	if err != nil {
		return nil, nil, err
	}
	defer fleet.Close()

	// Load the keyspace: row ids 1..nRows, 8-byte big-endian key column
	// (bytewise order = numeric order) plus a small payload. The key is
	// declared an 8-byte opp column: an index takes fixed-width cells only.
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	spec := proto.TableSpec{Name: "kv", Columns: []proto.ColumnSpec{
		{Name: "k", Kind: proto.KindOPP, Indexed: true, Width: 8},
		{Name: "v", Kind: proto.KindPlain},
	}}
	for _, st := range fleet.stores {
		if err := st.CreateTable(spec); err != nil {
			return nil, nil, err
		}
		const batch = 1000
		for lo := uint64(1); lo <= uint64(nRows); lo += batch {
			rows := make([]proto.Row, 0, batch)
			for id := lo; id < lo+batch && id <= uint64(nRows); id++ {
				rows = append(rows, proto.Row{ID: id, Cells: [][]byte{s6Key(id), payload}})
			}
			if err := st.Insert("kv", rows); err != nil {
				return nil, nil, err
			}
		}
	}

	dial := func(tenant string) ([]transport.Conn, func(), error) {
		conns := make([]transport.Conn, 0, len(fleet.addrs))
		for _, addr := range fleet.addrs {
			c, err := transport.DialWith(addr, transport.DialConfig{
				Timeout: 30 * time.Second,
				Tenant:  tenant,
				// Surface busy to the harness instead of retrying: the
				// open-loop results should show shedding, not hide it.
				BusyRetries: -1,
			})
			if err != nil {
				for _, c := range conns {
					c.Close()
				}
				return nil, nil, err
			}
			conns = append(conns, c)
		}
		closeAll := func() {
			for _, c := range conns {
				c.Close()
			}
		}
		return conns, closeAll, nil
	}

	res := &S6Result{OverloadFactor: 4}
	runSuite := func(name, tenant string, mix workload.Mix, rate float64, dur time.Duration) (*loadgen.Result, *S6Suite, error) {
		conns, closeConns, err := dial(tenant)
		if err != nil {
			return nil, nil, err
		}
		defer closeConns()
		for _, p := range fleet.pacers {
			p.resetPace()
		}
		admitted0, shed0 := fleet.schedTotals()
		var rr atomic.Uint64
		lr := loadgen.Run(loadgen.Config{
			Rate: rate, Duration: dur, Workers: workers,
			Mix: mix, Keys: uint64(nRows), Seed: 607,
		}, func(op workload.Op) error {
			return s6Exec(conns, &rr, payload, 50, op)
		})
		admitted1, shed1 := fleet.schedTotals()
		s := &S6Suite{
			Name: name, Mix: mix.Name,
			OfferedRate: rate,
			Offered:     lr.Offered, Completed: lr.Completed,
			Busy: lr.Busy, Failed: lr.Failed, Dropped: lr.Dropped,
			GoodputOPS:    lr.Goodput(),
			P50Nanos:      uint64(lr.Latency.Quantile(0.50)),
			P99Nanos:      uint64(lr.Latency.Quantile(0.99)),
			P999Nanos:     uint64(lr.Latency.Quantile(0.999)),
			SchedAdmitted: admitted1 - admitted0,
			SchedShed:     shed1 - shed0,
		}
		if lr.Failed > 0 {
			return nil, nil, fmt.Errorf("S6 %s: %d ops failed (beyond busy shedding)", name, lr.Failed)
		}
		res.Suites = append(res.Suites, *s)
		return lr, s, nil
	}

	// Suite 1 — saturation probe: offer 3x the deterministic capacity so
	// the fleet runs flat out; measured goodput is the throughput ceiling
	// and the completed-op p99 is the at-saturation tail.
	probe, probeSuite, err := runSuite("max-throughput", "probe", workload.MixReadHeavy, 3*capacity, probeDur)
	if err != nil {
		return nil, nil, err
	}
	res.SaturationGoodput = probe.Goodput()
	res.SaturationP99 = probeSuite.P99Nanos
	if res.SaturationGoodput <= 0 {
		return nil, nil, fmt.Errorf("S6: saturation probe completed no ops")
	}

	// Suite 2 — overload stress: 4x the measured ceiling. Admission
	// control must shed the excess fast and keep serving: bounded tail for
	// the requests it does admit, goodput within 20% of the ceiling.
	over, overSuite, err := runSuite("overload-4x", "overload", workload.MixBalanced, 4*res.SaturationGoodput, loadDur)
	if err != nil {
		return nil, nil, err
	}
	if overSuite.SchedShed == 0 && over.Busy == 0 && over.Dropped == 0 {
		return nil, nil, fmt.Errorf("S6 overload: 4x offered load shed nothing; admission control is not engaging")
	}
	if g := over.Goodput(); g < 0.8*res.SaturationGoodput {
		return nil, nil, fmt.Errorf("S6 overload: goodput %.0f ops/s under 4x load, want >= 80%% of saturation %.0f (collapse, not graceful shedding) [completed=%d busy=%d dropped=%d offered=%d elapsed=%v shed=%d admitted=%d]",
			g, res.SaturationGoodput, over.Completed, over.Busy, over.Dropped, over.Offered, over.Elapsed, overSuite.SchedShed, overSuite.SchedAdmitted)
	}
	if overSuite.P99Nanos > 3*res.SaturationP99 {
		return nil, nil, fmt.Errorf("S6 overload: admitted-request p99 %v exceeds 3x at-saturation p99 %v (queues unbounded)",
			time.Duration(overSuite.P99Nanos), time.Duration(res.SaturationP99))
	}

	// Suite 3 — long streaming scans as one tenant, point queries as
	// another: tenant-fair scheduling must keep the point tenant's goodput
	// near its (below-fair-share) offered rate while full-table scans
	// stream concurrently.
	scansDone := make(chan struct{})
	var scanCount, scanRows atomic.Uint64
	var scanErr error
	go func() {
		defer close(scansDone)
		conns, closeConns, err := dial("scans")
		if err != nil {
			scanErr = err
			return
		}
		defer closeConns()
		deadline := time.Now().Add(loadDur)
		var rr atomic.Uint64
		for time.Now().Before(deadline) {
			c := conns[rr.Add(1)%uint64(len(conns))]
			rows := uint64(0)
			err := transport.CallStream(c, &proto.ScanRequest{Table: "kv"}, func(chunk *proto.RowsResponse) error {
				rows += uint64(len(chunk.Rows))
				return nil
			})
			if err != nil {
				if transport.IsBusy(err) {
					continue // shed scans retry; the suite measures interference
				}
				scanErr = err
				return
			}
			if rows != uint64(nRows) {
				scanErr = fmt.Errorf("S6 scan-heavy: streamed %d rows, want %d", rows, nRows)
				return
			}
			scanCount.Add(1)
			scanRows.Add(rows)
		}
	}()
	pointRate := 0.3 * capacity
	points, pointsSuite, err := runSuite("scan-vs-points", "points", workload.MixReadHeavy, pointRate, loadDur)
	<-scansDone
	if err != nil {
		return nil, nil, err
	}
	if scanErr != nil {
		return nil, nil, scanErr
	}
	if scanCount.Load() == 0 {
		return nil, nil, fmt.Errorf("S6 scan-vs-points: no streaming scan completed")
	}
	if frac := float64(points.Completed) / float64(points.Offered); frac < 0.7 {
		return nil, nil, fmt.Errorf("S6 scan-vs-points: point tenant completed %.0f%% of offered ops under scan load, want >= 70%%", frac*100)
	}

	t := &Table{
		ID: "S6",
		Title: fmt.Sprintf("supplementary: sustained-load serving — admission control under open-loop load (%d TCP providers, %d workers each, %v service slot, %d rows)",
			nProviders, inflight, slot, nRows),
		PaperClaim: "a shared service must keep serving under overload: workload spikes are the " +
			"provider's problem (Sec. IV-B provisioning), so excess load is shed fast and fairly, " +
			"not absorbed into unbounded queues",
		Header: []string{"suite", "mix", "offered/s", "goodput/s", "p50", "p99", "p999", "shed", "dropped"},
	}
	for _, s := range res.Suites {
		t.Rows = append(t.Rows, []string{
			s.Name, s.Mix,
			fmt.Sprintf("%.0f", s.OfferedRate),
			fmt.Sprintf("%.0f", s.GoodputOPS),
			fmtDur(time.Duration(s.P50Nanos)),
			fmtDur(time.Duration(s.P99Nanos)),
			fmtDur(time.Duration(s.P999Nanos)),
			fmt.Sprintf("%d", s.Busy+s.SchedShed),
			fmt.Sprintf("%d", s.Dropped),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("saturation goodput %.0f ops/s (deterministic capacity %.0f: %d providers × one request per %v slot)",
			res.SaturationGoodput, capacity, nProviders, slot),
		fmt.Sprintf("at 4x overload: goodput held at %.0f%% of saturation, admitted p99 %.1fx the at-saturation p99 (asserted <= 80%% / 3x)",
			100*over.Goodput()/res.SaturationGoodput, float64(overSuite.P99Nanos)/float64(res.SaturationP99)),
		fmt.Sprintf("%d full-table streaming scans completed concurrently with point queries; point tenant kept %.0f%% of its offered rate (asserted >= 70%%)",
			scanCount.Load(), 100*float64(points.Completed)/float64(points.Offered)),
		fmt.Sprintf("latencies are open-loop (measured from scheduled arrival), so they include queue wait — no coordinated omission; point suite p99 %v",
			time.Duration(pointsSuite.P99Nanos)))
	return t, res, nil
}
