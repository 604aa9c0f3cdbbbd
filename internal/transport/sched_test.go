package transport

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sssdb/internal/proto"
)

// gateScheduler builds a 1-worker scheduler whose first item blocks until
// release is called, so tests can stage a known backlog before any
// scheduling decision is made.
func gateScheduler(t *testing.T, maxQueue int, weights map[string]int) (s *scheduler, release func()) {
	t.Helper()
	s = newScheduler(1, maxQueue, weights)
	t.Cleanup(s.close)
	gate := make(chan struct{})
	if !s.submit("gate", &schedItem{enq: time.Now(), run: func() { <-gate }}) {
		t.Fatal("gate item shed")
	}
	// Wait for the worker to pick the gate up so staged submissions all
	// queue behind it.
	deadline := time.Now().Add(time.Second)
	for {
		s.mu.Lock()
		executing := s.executing
		s.mu.Unlock()
		if executing == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the gate item")
		}
		time.Sleep(time.Millisecond)
	}
	return s, func() { close(gate) }
}

// TestSchedulerDWRRWeights stages backlogs for a weight-3 and a weight-1
// tenant behind a gate and checks the drain order: deficit round robin
// with quantum 4 must serve them in strict 12:4 blocks.
func TestSchedulerDWRRWeights(t *testing.T) {
	s, release := gateScheduler(t, 1024, map[string]int{"heavy": 3})
	var mu sync.Mutex
	var order []string
	record := func(name string) func() {
		return func() {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}
	const perTenant = 48
	for i := 0; i < perTenant; i++ {
		if !s.submit("heavy", &schedItem{enq: time.Now(), run: record("heavy")}) {
			t.Fatal("heavy submission shed")
		}
		if !s.submit("light", &schedItem{enq: time.Now(), run: record("light")}) {
			t.Fatal("light submission shed")
		}
	}
	release()
	if !s.waitIdle(5 * time.Second) {
		t.Fatal("scheduler never drained")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2*perTenant {
		t.Fatalf("ran %d items, want %d", len(order), 2*perTenant)
	}
	// One full DWRR round is 12 heavy + 4 light; the backlog covers four
	// whole rounds before either queue empties.
	for round := 0; round < 4; round++ {
		block := order[round*16 : (round+1)*16]
		heavy := 0
		for _, name := range block {
			if name == "heavy" {
				heavy++
			}
		}
		if heavy != 12 {
			t.Fatalf("round %d served %d heavy of 16 (%v), want 12", round, heavy, block)
		}
	}
}

// TestSchedulerQueueBound proves the per-tenant bound sheds instead of
// queueing without limit, and that distinct tenants have distinct bounds.
func TestSchedulerQueueBound(t *testing.T) {
	s, release := gateScheduler(t, 2, nil)
	nop := func() {}
	for i := 0; i < 2; i++ {
		if !s.submit("a", &schedItem{enq: time.Now(), run: nop}) {
			t.Fatalf("submission %d shed below the bound", i)
		}
	}
	if s.submit("a", &schedItem{enq: time.Now(), run: nop}) {
		t.Fatal("submission beyond the tenant bound was admitted")
	}
	// Another tenant's queue is independent.
	if !s.submit("b", &schedItem{enq: time.Now(), run: nop}) {
		t.Fatal("tenant b shed while empty")
	}
	st := s.stats()
	if st.Shed != 1 {
		t.Fatalf("shed count %d, want 1", st.Shed)
	}
	release()
	if !s.waitIdle(5 * time.Second) {
		t.Fatal("scheduler never drained")
	}
	if st := s.stats(); st.Admitted != 4 { // gate + 2×a + 1×b
		t.Fatalf("admitted %d, want 4", st.Admitted)
	}
}

// blockingHandler parks scan handlers on a channel (pings answer
// immediately, and are counted) so tests control exactly when server
// capacity frees up.
type blockingHandler struct {
	release chan struct{}
	once    sync.Once
	started atomic.Int32
	pings   atomic.Int32
}

func (h *blockingHandler) Handle(req proto.Message) proto.Message {
	switch req.(type) {
	case *proto.ScanRequest:
		h.started.Add(1)
		<-h.release
	case *proto.PingRequest:
		h.pings.Add(1)
	}
	return &proto.OKResponse{}
}

// unblock releases every parked handler; safe to call more than once.
func (h *blockingHandler) unblock() { h.once.Do(func() { close(h.release) }) }

// saturate stages a known saturation on a 1-worker, 1-slot server over c:
// one scan occupying the worker and one sitting in the tenant queue, both
// issued sequentially so neither can steal the other's slot. The returned
// channel yields the two staged responses after h.unblock.
func saturate(t *testing.T, srv *Server, c Conn, h *blockingHandler) <-chan proto.Message {
	t.Helper()
	results := make(chan proto.Message, 2)
	call := func() {
		resp, err := c.Call(&proto.ScanRequest{Table: "t"})
		if err != nil {
			t.Error(err)
		}
		results <- resp
	}
	go call()
	deadline := time.Now().Add(2 * time.Second)
	for h.started.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no handler started")
		}
		time.Sleep(time.Millisecond)
	}
	go call()
	for {
		st := srv.SchedStats()
		if st.QueueDepth == 1 {
			return results
		}
		if time.Now().After(deadline) {
			t.Fatalf("second call never queued: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerBusyFastFail saturates a 1-worker, 1-slot server and checks
// that the overflow call is shed with CodeServerBusy quickly — it must not
// wait behind the blocked handler.
func TestServerBusyFastFail(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{})}
	srv := newTestServer(t, h, ServerConfig{MaxInflight: 1, MaxQueue: -1})
	t.Cleanup(h.unblock)
	c, err := DialWith(srv.Addr().String(), DialConfig{Timeout: 5 * time.Second, BusyRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	results := saturate(t, srv, c, h)
	start := time.Now()
	resp, err := c.Call(&proto.ScanRequest{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	shedAfter := time.Since(start)
	er, ok := resp.(*proto.ErrorResponse)
	if !ok || er.Code != proto.CodeServerBusy {
		t.Fatalf("overflow call got %#v, want CodeServerBusy", resp)
	}
	if !IsBusy(er.Err()) {
		t.Fatal("IsBusy must match a remote CodeServerBusy error")
	}
	if shedAfter > time.Second {
		t.Fatalf("shed took %v; busy must fast-fail, not wait for capacity", shedAfter)
	}
	h.unblock()
	for i := 0; i < 2; i++ {
		if resp := <-results; resp == nil {
			t.Fatal("blocked call lost its response")
		}
	}
	if st := srv.SchedStats(); st.Shed == 0 {
		t.Fatalf("server stats recorded no sheds: %+v", st)
	}
}

// TestClientBusyRetry proves the transparent busy-retry path: a call shed
// while the server is saturated succeeds once capacity frees up, without
// the caller seeing the rejection.
func TestClientBusyRetry(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{})}
	srv := newTestServer(t, h, ServerConfig{MaxInflight: 1, MaxQueue: -1})
	t.Cleanup(h.unblock)
	c, err := DialWith(srv.Addr().String(), DialConfig{Timeout: 5 * time.Second, BusyRetries: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	results := saturate(t, srv, c, h)
	// Release capacity shortly after the overflow call's first attempts
	// shed; its backoff loop must then get through.
	go func() {
		time.Sleep(30 * time.Millisecond)
		h.unblock()
	}()
	resp, err := c.Call(&proto.ScanRequest{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(*proto.OKResponse); !ok {
		t.Fatalf("retried call got %#v, want OK", resp)
	}
	<-results
	<-results
}

// TestServerShutdownDrains checks graceful shutdown semantics: in-flight
// and queued work completes, new work is shed, and Shutdown reports a
// clean drain.
func TestServerShutdownDrains(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{})}
	srv := newTestServer(t, h, ServerConfig{MaxInflight: 1})
	t.Cleanup(h.unblock)
	c, err := DialWith(srv.Addr().String(), DialConfig{Timeout: 5 * time.Second, BusyRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan proto.Message, 1)
	go func() {
		resp, err := c.Call(&proto.ScanRequest{Table: "t"})
		if err != nil {
			t.Error(err)
		}
		done <- resp
	}()
	deadline := time.Now().Add(2 * time.Second)
	for h.started.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no handler started")
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		h.unblock()
	}()
	if !srv.Shutdown(5 * time.Second) {
		t.Fatal("Shutdown reported an unclean drain")
	}
	select {
	case resp := <-done:
		if _, ok := resp.(*proto.OKResponse); !ok {
			t.Fatalf("draining call got %#v, want OK", resp)
		}
	case <-time.After(time.Second):
		t.Fatal("in-flight call never completed during drain")
	}
}

// statsHandler answers pings with an empty StatsResponse so tests can
// observe what the transport layer adds to it.
type statsHandler struct{}

func (statsHandler) Handle(req proto.Message) proto.Message {
	if _, ok := req.(*proto.PingRequest); ok {
		return &proto.StatsResponse{}
	}
	return &proto.OKResponse{}
}

// TestSchedStatsOnPing checks that stats replies passing through the
// server pick up the admission scheduler's counters, so every ping doubles
// as a queue-pressure probe.
func TestSchedStatsOnPing(t *testing.T) {
	srv := newTestServer(t, statsHandler{}, ServerConfig{})
	c, err := DialWith(srv.Addr().String(), DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if _, err := c.Call(&proto.PingRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.Call(&proto.PingRequest{})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := resp.(*proto.StatsResponse)
	if !ok {
		t.Fatalf("ping answered %T", resp)
	}
	if st.Admitted < 5 {
		t.Fatalf("stats reply reports %d admitted, want >=5", st.Admitted)
	}
	if st.HandleP50 == 0 {
		t.Fatal("stats reply carries no handler latency quantiles")
	}
}

// TestTenantFairnessManyConnections is the fairness regression test for
// connection-count abuse: one heavy tenant offering ~10x its fair share
// across twelve connections competes with three light tenants on one
// connection each. Because scheduling is keyed by the tenant from the
// session hello — not by connection — the light tenants' throughput must
// stay within 70% of what they would get on an idle server (their offered
// rate, since they request well below fair share).
func TestTenantFairnessManyConnections(t *testing.T) {
	const (
		handlerDelay = 5 * time.Millisecond
		workers      = 2 // capacity = workers/delay = 400 req/s
		lightTenants = 3
		lightOps     = 50
		lightGap     = 20 * time.Millisecond // 50 req/s per light tenant
		heavyConns   = 12
		perConnLoad  = 2
	)
	h := &sleepHandler{delay: handlerDelay}
	srv := newTestServer(t, h, ServerConfig{MaxInflight: workers})

	var stop atomic.Bool
	var heavyWG sync.WaitGroup
	heavyConnsList := make([]Conn, 0, heavyConns)
	for i := 0; i < heavyConns; i++ {
		c, err := DialWith(srv.Addr().String(), DialConfig{
			Timeout: 10 * time.Second,
			Tenant:  "heavy", // every connection claims the same tenant
		})
		if err != nil {
			t.Fatal(err)
		}
		heavyConnsList = append(heavyConnsList, c)
		for j := 0; j < perConnLoad; j++ {
			heavyWG.Add(1)
			go func(c Conn) {
				defer heavyWG.Done()
				for !stop.Load() {
					c.Call(&proto.ScanRequest{Table: "slow"})
				}
			}(c)
		}
	}
	defer func() {
		stop.Store(true)
		heavyWG.Wait()
		for _, c := range heavyConnsList {
			c.Close()
		}
	}()

	// Let the heavy flood saturate the server before the light tenants
	// start, so they never see an idle honeymoon.
	time.Sleep(100 * time.Millisecond)

	var lightWG sync.WaitGroup
	completed := make([]atomic.Int32, lightTenants)
	for tn := 0; tn < lightTenants; tn++ {
		c, err := DialWith(srv.Addr().String(), DialConfig{
			Timeout: 10 * time.Second,
			Tenant:  "light-" + string(rune('a'+tn)),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		lightWG.Add(1)
		go func(tn int, c Conn) {
			defer lightWG.Done()
			var calls sync.WaitGroup
			ticker := time.NewTicker(lightGap)
			defer ticker.Stop()
			for i := 0; i < lightOps; i++ {
				// Open loop: fire at the scheduled time whether or not
				// earlier calls have completed.
				calls.Add(1)
				go func() {
					defer calls.Done()
					resp, err := c.Call(&proto.ScanRequest{Table: "slow"})
					if err != nil {
						return
					}
					if _, ok := resp.(*proto.RowsResponse); ok {
						completed[tn].Add(1)
					}
				}()
				<-ticker.C
			}
			calls.Wait()
		}(tn, c)
	}
	lightWG.Wait()

	for tn := 0; tn < lightTenants; tn++ {
		got := completed[tn].Load()
		if want := int32(lightOps * 7 / 10); got < want {
			t.Errorf("light tenant %d completed %d/%d ops under heavy cross-tenant load, want >= %d (70%% of isolated throughput)",
				tn, got, lightOps, want)
		}
	}
}

// streamHog answers every scan with h.chunks one-row chunks, h.pause apart,
// so one scan holds a scheduler worker for about chunks×pause; anything
// else is answered at once.
type streamHog struct {
	chunks int
	pause  time.Duration
}

func (h *streamHog) Handle(proto.Message) proto.Message { return &proto.OKResponse{} }

func (h *streamHog) HandleStream(req proto.Message, emit func(*proto.RowsResponse) error) (bool, error) {
	if _, ok := req.(*proto.ScanRequest); !ok {
		return false, nil
	}
	for i := 0; i < h.chunks; i++ {
		if err := emit(&proto.RowsResponse{Columns: []string{"c"}, Rows: []proto.Row{{ID: uint64(i + 1)}}}); err != nil {
			return true, err
		}
		time.Sleep(h.pause)
	}
	return true, nil
}

// TestTenantFairnessAgainstStreams keeps a point tenant served while another
// tenant's streams hold every worker: with two workers, eight scans of
// ≈100 ms each always in flight and a ping every 60 ms, round robin over
// tenants admits a ping after at most one turn (four scans) of the scan
// tenant, not behind every scan queued before it. Measured over loopback
// TCP: point p50 ≈110 ms, and ≈370 ms when the scheduler ignores tenants
// and admits in arrival order.
func TestTenantFairnessAgainstStreams(t *testing.T) {
	const (
		workers     = 2
		streams     = 8
		points      = 30
		pointGap    = 60 * time.Millisecond
		maxPointP50 = 250 * time.Millisecond
	)
	srv := newTestServer(t, &streamHog{chunks: 20, pause: 5 * time.Millisecond}, ServerConfig{MaxInflight: workers})
	dial := func(tenant string) Conn {
		c, err := DialWith(srv.Addr().String(), DialConfig{Timeout: 10 * time.Second, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	scans, pts := dial("scans"), dial("points")

	var stop atomic.Bool
	var scanWG sync.WaitGroup
	var scanFails atomic.Int32
	for i := 0; i < streams; i++ {
		scanWG.Add(1)
		go func() {
			defer scanWG.Done()
			for !stop.Load() {
				if err := CallStream(scans, &proto.ScanRequest{Table: "t"}, func(*proto.RowsResponse) error { return nil }); err != nil {
					scanFails.Add(1) // a failed scan frees its worker early: the load is gone
					return
				}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		scanWG.Wait()
	}()
	// Let the streams take both workers before the first ping.
	time.Sleep(100 * time.Millisecond)

	lat := make([]time.Duration, points)
	errs := make([]error, points)
	var pointWG sync.WaitGroup
	ticker := time.NewTicker(pointGap)
	defer ticker.Stop()
	for i := 0; i < points; i++ {
		// Open loop: fire on schedule whether or not earlier pings returned.
		pointWG.Add(1)
		go func(i int) {
			defer pointWG.Done()
			start := time.Now()
			_, errs[i] = pts.Call(&proto.PingRequest{})
			lat[i] = time.Since(start)
		}(i)
		<-ticker.C
	}
	pointWG.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	if n := scanFails.Load(); n > 0 {
		t.Fatalf("%d scans failed; the streams no longer held the workers", n)
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	p50, p90 := lat[points/2], lat[points*9/10]
	t.Logf("point latency under %d streams: p50 %v, p90 %v", streams, p50, p90)
	if p50 > maxPointP50 {
		t.Fatalf("point p50 %v behind another tenant's streams, want <= %v", p50, maxPointP50)
	}
}
