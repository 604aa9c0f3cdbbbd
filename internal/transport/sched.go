package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"sssdb/internal/hist"
	"sssdb/internal/proto"
)

// ErrServerBusy is the client-visible form of an admission rejection: the
// server shed the request before executing it, so retrying after a backoff
// is always safe. On the wire it travels as an ErrorResponse with
// CodeServerBusy; IsBusy matches both forms.
var ErrServerBusy = errors.New("transport: server busy")

// IsBusy reports whether err is an admission-control rejection (local
// sentinel or remote CodeServerBusy error).
func IsBusy(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrServerBusy) {
		return true
	}
	var re *proto.RemoteError
	return errors.As(err, &re) && re.Code == proto.CodeServerBusy
}

// busyResponse is the fast-fail shed reply.
func busyResponse() *proto.ErrorResponse {
	return &proto.ErrorResponse{Code: proto.CodeServerBusy, Msg: "admission queue full; retry with backoff"}
}

// schedQuantum is the DWRR quantum: how many requests one weight unit is
// worth per scheduler visit. Small enough that a heavy tenant cannot burst
// far past its share, large enough that the ring does not thrash.
const schedQuantum = 4

// schedItem is one admitted-or-shed unit of work: a decoded request bound
// to its connection's frame writer.
type schedItem struct {
	enq time.Time
	run func()
	// shed replies busy without executing. Required: drain calls it to
	// fast-fail every item still queued.
	shed func()
}

// tenantQ is one tenant's FIFO of pending requests plus its DWRR state.
// A tenant is "active" (in the ring) exactly while its queue is non-empty;
// going idle forfeits any accumulated deficit, so a tenant cannot bank
// credit while idle and then burst past its share.
type tenantQ struct {
	name    string
	weight  int
	q       []*schedItem
	deficit int
	inRing  bool
}

// scheduler is the server-wide admission controller: a global budget of
// concurrently-executing handlers fed from per-tenant FIFO queues drained
// in deficit-weighted round-robin order. Connections submit work keyed by
// the tenant they authenticated in the hello, so a tenant opening more
// connections gets more queue slots consumed, not more service share.
// Queues are bounded; submit fast-fails (shed) instead of queueing without
// limit, which is what keeps admitted-request latency bounded under
// overload.
type scheduler struct {
	budget   int // worker count = max concurrently-executing handlers
	maxQueue int // per-tenant pending bound
	weights  map[string]int

	mu        sync.Mutex
	cond      *sync.Cond
	tenants   map[string]*tenantQ
	ring      []*tenantQ // active tenants, round-robin order
	ringPos   int
	queued    int // total items across tenant queues
	executing int
	closed    bool
	draining  bool
	workers   sync.WaitGroup

	admitted   atomic.Uint64
	shed       atomic.Uint64
	admitHist  hist.Hist
	handleHist hist.Hist
}

func newScheduler(budget, maxQueue int, weights map[string]int) *scheduler {
	s := &scheduler{
		budget:   budget,
		maxQueue: maxQueue,
		weights:  weights,
		tenants:  make(map[string]*tenantQ),
	}
	s.cond = sync.NewCond(&s.mu)
	s.workers.Add(budget)
	for i := 0; i < budget; i++ {
		go s.worker()
	}
	return s
}

// submit enqueues one item for tenant, reporting false (shed) when the
// tenant's queue is full or the scheduler is draining/closed. The caller
// owns replying with busyResponse on false.
func (s *scheduler) submit(tenant string, it *schedItem) bool {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		s.shed.Add(1)
		return false
	}
	t := s.tenants[tenant]
	if t == nil {
		w := s.weights[tenant]
		if w <= 0 {
			w = 1
		}
		t = &tenantQ{name: tenant, weight: w}
		s.tenants[tenant] = t
	}
	if len(t.q) >= s.maxQueue {
		s.mu.Unlock()
		s.shed.Add(1)
		return false
	}
	t.q = append(t.q, it)
	if !t.inRing {
		t.inRing = true
		s.ring = append(s.ring, t)
	}
	s.queued++
	s.cond.Signal()
	s.mu.Unlock()
	return true
}

// next blocks until an item is admitted (nil once the scheduler is closed
// and fully drained). Tenant selection is deficit round-robin: entering a
// tenant tops its deficit up by weight×quantum, each admitted request costs
// one, and the ring advances when the deficit is spent. A tenant whose
// queue empties leaves the ring and forfeits its remaining deficit.
func (s *scheduler) next() *schedItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ring) == 0 {
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
	if s.ringPos >= len(s.ring) {
		s.ringPos = 0
	}
	t := s.ring[s.ringPos]
	if t.deficit <= 0 {
		t.deficit = t.weight * schedQuantum
	}
	it := t.q[0]
	t.q[0] = nil
	t.q = t.q[1:]
	t.deficit--
	s.queued--
	if len(t.q) == 0 {
		t.q = nil
		t.deficit = 0
		t.inRing = false
		s.ring = append(s.ring[:s.ringPos], s.ring[s.ringPos+1:]...)
		// ringPos already points at the successor after the removal.
	} else if t.deficit <= 0 {
		s.ringPos++
	}
	s.executing++
	return it
}

// worker is one slot of the global inflight budget.
func (s *scheduler) worker() {
	defer s.workers.Done()
	for {
		it := s.next()
		if it == nil {
			return
		}
		s.admitHist.Observe(time.Since(it.enq))
		s.admitted.Add(1)
		start := time.Now()
		it.run()
		s.handleHist.Observe(time.Since(start))
		s.mu.Lock()
		s.executing--
		s.mu.Unlock()
	}
}

// drain stops admitting new work (submissions shed) AND sheds everything
// still queued: only requests a worker has already admitted run to
// completion. Shutdown latency is therefore bounded by the in-flight
// handlers, not by the queue depth — before this, a deep queue (say, a
// tenant's backlog of streaming scans behind a slow handler) pinned
// Shutdown against its full drain timeout while callers sat unanswered.
// Shed callers get the same fast-fail busy reply submit would have sent.
func (s *scheduler) drain() {
	s.mu.Lock()
	s.draining = true
	var dropped []*schedItem
	for _, t := range s.tenants {
		for _, it := range t.q {
			dropped = append(dropped, it)
		}
		t.q = nil
		t.deficit = 0
		t.inRing = false
	}
	s.ring = nil
	s.ringPos = 0
	s.queued = 0
	s.mu.Unlock()
	// Reply outside the lock: shed closures write to their connections.
	for _, it := range dropped {
		s.shed.Add(1)
		it.shed()
	}
}

// waitIdle blocks until no work is queued or executing, or the timeout
// elapses; it reports whether the scheduler went idle.
func (s *scheduler) waitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		idle := s.queued == 0 && s.executing == 0
		s.mu.Unlock()
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close stops the workers once every queued item has run. Safe to call
// more than once.
func (s *scheduler) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.workers.Wait()
}

// SchedStats is a snapshot of the admission scheduler, exposed for tests,
// tooling, and the stats-on-ping path.
type SchedStats struct {
	QueueDepth   int
	QueueTenants int
	Executing    int
	Admitted     uint64
	Shed         uint64
	AdmitWaitP50 time.Duration
	AdmitWaitP99 time.Duration
	HandleP50    time.Duration
	HandleP99    time.Duration
	HandleP999   time.Duration
}

func (s *scheduler) stats() SchedStats {
	s.mu.Lock()
	st := SchedStats{
		QueueDepth:   s.queued,
		QueueTenants: len(s.ring),
		Executing:    s.executing,
	}
	s.mu.Unlock()
	st.Admitted = s.admitted.Load()
	st.Shed = s.shed.Load()
	st.AdmitWaitP50 = s.admitHist.Quantile(0.50)
	st.AdmitWaitP99 = s.admitHist.Quantile(0.99)
	st.HandleP50 = s.handleHist.Quantile(0.50)
	st.HandleP99 = s.handleHist.Quantile(0.99)
	st.HandleP999 = s.handleHist.Quantile(0.999)
	return st
}

// fillStats attaches the serving-path counters to a stats reply riding a
// ping, so the client's repair loop sees queue pressure next to the cache
// and checkpoint numbers it already records.
func (s *scheduler) fillStats(m *proto.StatsResponse) {
	st := s.stats()
	m.QueueDepth = uint64(st.QueueDepth)
	m.QueueTenants = uint64(st.QueueTenants)
	m.Admitted = st.Admitted
	m.Shed = st.Shed
	m.AdmitWaitP50 = uint64(st.AdmitWaitP50)
	m.AdmitWaitP99 = uint64(st.AdmitWaitP99)
	m.HandleP50 = uint64(st.HandleP50)
	m.HandleP99 = uint64(st.HandleP99)
	m.HandleP999 = uint64(st.HandleP999)
}
