package main

import (
	"math"
	"testing"

	"sssdb/internal/proto"
	"sssdb/internal/transport"
)

// One statement with two parallel calls, each fully containing its handler.
func healthySpans() []span {
	return []span{
		{Layer: layerClient, Kind: uint8(classRead), Provider: -1, Start: 1000, End: 2000, Rows: 1},
		{Layer: layerTransport, Kind: uint8(proto.KScan), Provider: 0, Start: 1100, End: 1700, First: 1600},
		{Layer: layerTransport, Kind: uint8(proto.KScan), Provider: 1, Start: 1150, End: 1800, First: 1700},
		{Layer: layerServer, Kind: uint8(proto.KScan), Provider: 0, Start: 1300, End: 1400, Rows: 1},
		{Layer: layerServer, Kind: uint8(proto.KScan), Provider: 1, Start: 1350, End: 1550, Rows: 1},
		// A repair ping outside any statement is expected and ignored.
		{Layer: layerTransport, Kind: uint8(proto.KPing), Provider: 2, Start: 2500, End: 2600},
		{Layer: layerServer, Kind: uint8(proto.KPing), Provider: 2, Start: 2520, End: 2540},
	}
}

func TestSummarizeAccountsForAStatement(t *testing.T) {
	s := summarize(healthySpans(), 3000, 3)
	if v := s.violations(); v != 0 {
		t.Fatalf("healthy trace has %d violations: %+v", v, s)
	}
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	approx("statements", float64(s.statements), 1)
	approx("stmt_us", s.stmtUS, 1.0)
	approx("self_us", s.selfUS, 0.3) // 1000 ns − union [1100,1800)
	approx("calls_per_op", s.callsPerOp, 2)
	approx("rounds_per_op", s.roundsPer, 1)
	approx("call_us", s.callUS, 0.625)
	approx("handle_us", s.handleUS, 0.15)
	approx("transport self_us", s.transSelfUS, 0.475)
	approx("first_chunk_us", s.firstChunkUS, 0.525)
	approx("handle_skew", s.handleSkew, 2)
	approx("busy_frac", s.busyFrac, 300.0/(3000*3))
	approx("rows sent", float64(s.rowsSent), 2)
	approx("rows back", float64(s.rowsBack), 1)
}

func TestSummarizeFlagsWhatItCannotAccountFor(t *testing.T) {
	t.Run("handler outliving its call", func(t *testing.T) {
		spans := healthySpans()
		spans[3].End = 1750 // provider 0's handler ends after its call returned
		if s := summarize(spans, 3000, 3); s.unnested != 1 {
			t.Errorf("unnested = %d, want 1", s.unnested)
		}
	})
	t.Run("handler of an abandoned call may outlive it", func(t *testing.T) {
		spans := healthySpans()
		spans[3].End = 1750
		spans[1].Canceled = true
		if s := summarize(spans, 3000, 3); s.unnested != 0 {
			t.Errorf("unnested = %d, want 0", s.unnested)
		}
	})
	t.Run("handler with no call of its kind", func(t *testing.T) {
		spans := healthySpans()
		spans[3].Kind = uint8(proto.KAggregate)
		if s := summarize(spans, 3000, 3); s.unnested != 1 {
			t.Errorf("unnested = %d, want 1", s.unnested)
		}
	})
	t.Run("call outside every statement", func(t *testing.T) {
		spans := append(healthySpans(),
			span{Layer: layerTransport, Kind: uint8(proto.KScan), Provider: 0, Start: 2100, End: 2200})
		if s := summarize(spans, 3000, 3); s.strayCalls != 1 {
			t.Errorf("strayCalls = %d, want 1", s.strayCalls)
		}
	})
	t.Run("call shorter than its handler", func(t *testing.T) {
		spans := healthySpans()
		spans[3].Start, spans[3].End = 1100, 1700
		spans[4].Start, spans[4].End = 1100, 1850
		s := summarize(spans, 3000, 3)
		if len(s.negativeKinds) != 1 || s.negativeKinds[0] != "Scan" {
			t.Errorf("negativeKinds = %v, want [Scan]", s.negativeKinds)
		}
	})
}

// minimalConn is a transport.Conn with none of the optional interfaces.
type minimalConn struct{}

func (minimalConn) Call(proto.Message) (proto.Message, error) { return nil, transport.ErrClosed }
func (minimalConn) Stats() transport.Stats                    { return transport.Stats{} }
func (minimalConn) Close() error                              { return nil }

// The wrappers advertise every optional interface, so they refuse to wrap a
// value that lacks one: wrapping it would move the client or the server onto
// a path the bare value never takes.
func TestWrappersRefusePartialImplementations(t *testing.T) {
	tr := newTracer()
	if _, err := traceConn(minimalConn{}, 0, tr); err == nil {
		t.Error("traceConn wrapped a connection without the optional call interfaces")
	}
	echo := transport.HandlerFunc(func(m proto.Message) proto.Message { return m })
	if _, err := traceHandler(echo, 0, tr); err == nil {
		t.Error("traceHandler wrapped a handler that cannot stream")
	}
}

// equivalenceStatements is the length of the fixed run the wrapped and
// unwrapped paths are compared on.
const equivalenceStatements = 500

// TestWrappersDoNotChangeThePath runs the same seeded 500 statements of each
// workload through bare connections and handlers and through the timing
// wrappers, and requires identical traffic: the client and the transport
// server choose their code paths by type-asserting for optional interfaces,
// so a wrapper that dropped one would move the traced run onto the buffered
// path and the per-layer table would describe a different program.
//
// Hedged reads fire on a timing threshold, so the same run can issue a
// different number of calls twice in a row with no wrapper anywhere; they
// are switched off on both sides here (and nowhere else).
func TestWrappersDoNotChangeThePath(t *testing.T) {
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			traffic := func(wrapped bool) (bytesPerOp, callsPerOp float64) {
				e, err := setUp(wl, 42, 1000, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer e.close()
				var tr *tracer
				if wrapped {
					tr = newTracer()
					tr.record(true)
				}
				e.f.clientOpts.HedgeDelay = -1
				if err := e.f.reserve(tr); err != nil {
					t.Fatal(err)
				}
				p := &phase{}
				e.drive(p, 1, 0, equivalenceStatements, tr)
				if p.failed > 0 {
					t.Fatalf("%d statements failed: %v", p.failed, p.errs)
				}
				if wrapped {
					spans := tr.snapshot()
					if s := summarize(spans, p.wall, len(e.f.stores)); s.statements != p.statements() || s.calls == 0 || s.handles != s.calls {
						t.Errorf("wrappers saw %d statements, %d calls, %d handles for %d statements driven",
							s.statements, s.calls, s.handles, p.statements())
					}
					// Traffic alone cannot tell the streamed path from the
					// buffered one when a result fits one frame, so also
					// require what the bare stack does with an unverified
					// scan: CallStream on the client, HandleStream on the
					// server, every time.
					for _, s := range spans {
						if s.Layer != layerClient && proto.Kind(s.Kind) == proto.KScan && !s.Stream {
							t.Fatalf("a scan left the streaming path under the wrappers: %+v", s)
						}
					}
				}
				ops := float64(p.statements())
				return float64(p.use.bytesSent+p.use.bytesRecv) / ops, float64(p.use.calls) / ops
			}
			bareBytes, bareCalls := traffic(false)
			wrapBytes, wrapCalls := traffic(true)
			if bareBytes != wrapBytes || bareCalls != wrapCalls {
				t.Errorf("bare: %v B/op over %v calls/op; wrapped: %v B/op over %v calls/op",
					bareBytes, bareCalls, wrapBytes, wrapCalls)
			}
		})
	}
}
