package main

import (
	"encoding/json"
	"math"
	"time"
)

// metric is one reported number. Value is nil (JSON null) when the workload
// has no such operation or too few samples to carry the quantile; N is the
// number of samples a timing rests on.
type metric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n,omitempty"`
}

// metricSet maps metric name → value for one run.
type metricSet map[string]metric

// set records v under name, as null when v is NaN or infinite.
func (ms metricSet) set(name string, v float64, n int) {
	m := metric{Unit: unitOf(name), N: n}
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		m.Value = &v
	}
	ms[name] = m
}

// metricDef describes one metric of the dictionary. Bound is the relative
// worsening that counts as a regression (0 = no bound: per-layer metrics
// explain, they do not gate). Gate marks the end-to-end metrics
// BENCHMARK.json lists with their bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Gate   bool
}

// endToEndDefs are the metrics a user of the system sees, each with the bound
// -compare applies. Gate marks the four BENCHMARK.json lists under end_to_end:
// the driver rejects a benchmark whose gated metrics spread wider than their
// bounds over ten runs, a bound may not exceed 0.25, and on this sandbox the
// machine's own speed moves every time-based metric by up to 0.35 from one
// minute to the next (README, Noise). So, by the rule the issue set for a
// metric that misses its bound, the time-based metrics are not gated:
// BENCHMARK.json carries them among the per_layer names, as it does the
// latency-by-class metrics, which do not exist on every workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, true},
	{"ops_per_s", "1/s", "higher", 0.25, false},
	{"op_p50_us", "us", "lower", 0.25, false},
	{"op_p95_us", "us", "lower", 0.25, false},
	{"wire_bytes_per_op", "B", "lower", 0.02, true},
	{"cpu_ms_per_op", "ms", "lower", 0.25, false},
	{"stored_bytes_per_user_byte", "B/B", "lower", 0.02, true},
	{"peak_heap_mb", "MiB", "lower", 0.25, true},

	{"read_p50_us", "us", "lower", 0.25, false},
	{"read_p99_us", "us", "lower", 0.25, false},
	{"write_p50_us", "us", "lower", 0.25, false},
	{"write_p99_us", "us", "lower", 0.25, false},
	{"commit_p50_us", "us", "lower", 0.25, false},
	{"commit_p99_us", "us", "lower", 0.25, false},
	{"first_row_p50_ms", "ms", "lower", 0.25, false},
	// Any increase of the error rate is a regression: its bound is zero,
	// which compare.go reads as "no worsening at all".
	{"error_rate", "ratio", "lower", 0, false},
}

// perLayerDefs are the metrics of single layers, named layer.metric with the
// layer being the package whose boundary or public function is timed.
var perLayerDefs = []metricDef{
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "client.stmt_us", Unit: "us", Better: "lower"},
	{Name: "client.self_us", Unit: "us", Better: "lower"},
	{Name: "client.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "client.rounds_per_op", Unit: "count", Better: "lower"},
	{Name: "client.hedges_per_kop", Unit: "count", Better: "lower"},
	{Name: "secretshare.split_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "secretshare.combine_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "opp.split_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "opp.share_at_ns", Unit: "ns", Better: "lower"},
	{Name: "opp.reconstruct_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "numenc.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "proto.decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "proto.response_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "proto.request_bytes", Unit: "B", Better: "lower"},
	{Name: "transport.call_us", Unit: "us", Better: "lower"},
	{Name: "transport.self_us", Unit: "us", Better: "lower"},
	{Name: "transport.first_chunk_us", Unit: "us", Better: "lower"},
	{Name: "transport.bytes_sent_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.bytes_recv_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.admit_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "transport.shed", Unit: "count", Better: "lower"},
	{Name: "server.handle_us", Unit: "us", Better: "lower"},
	{Name: "server.requests_per_op", Unit: "count", Better: "lower"},
	{Name: "server.handle_skew", Unit: "ratio", Better: "lower"},
	{Name: "server.busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "server.rows_sent_per_row_returned", Unit: "ratio", Better: "lower"},
	{Name: "store.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "store.cache_misses_per_op", Unit: "count", Better: "lower"},
	{Name: "store.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "store.writebacks_per_op", Unit: "count", Better: "lower"},
	{Name: "store.wal_records_per_write", Unit: "count", Better: "lower"},
	{Name: "store.wal_fsyncs_per_write", Unit: "count", Better: "lower"},
	{Name: "store.wal_fsync_us", Unit: "us", Better: "lower"},
	{Name: "store.wal_fsync_max_us", Unit: "us", Better: "lower"},
	{Name: "store.checkpoints", Unit: "count", Better: "lower"},
	{Name: "store.checkpoint_lag_records", Unit: "count", Better: "lower"},
	{Name: "store.point_scan_us", Unit: "us", Better: "lower"},
	{Name: "store.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "store.aggregate_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "store.insert_us_per_row", Unit: "us", Better: "lower"},
	{Name: "store.reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "store.recovered_records", Unit: "count", Better: "lower"},
	{Name: "btree.get_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "process.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "process.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.violations", Unit: "count", Better: "lower"},
}

// defsByName indexes both dictionaries.
var defsByName = func() map[string]metricDef {
	m := make(map[string]metricDef)
	for _, d := range endToEndDefs {
		m[d.Name] = d
	}
	for _, d := range perLayerDefs {
		m[d.Name] = d
	}
	return m
}()

func unitOf(name string) string {
	d, ok := defsByName[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the dictionary")
	}
	return d.Unit
}

// endToEndMetrics fills ms from the set-up times and the measured run.
func endToEndMetrics(ms metricSet, setups []float64, p *phase, storedBytes, userBytes int64, res *runResult) {
	ops := float64(p.statements())
	ms.set("setup_s", median(append([]float64(nil), setups...)), len(setups))
	ms.set("ops_per_s", p.opsPerSec(), p.statements())
	ms.set("op_p50_us", quantile(p.all, 0.50), len(p.all))
	ms.set("op_p95_us", quantile(p.all, 0.95), len(p.all))
	ms.set("wire_bytes_per_op", float64(p.use.bytesSent+p.use.bytesRecv)/ops, p.statements())
	ms.set("cpu_ms_per_op", float64(p.use.cpu)/float64(time.Millisecond)/ops, p.statements())
	ms.set("stored_bytes_per_user_byte", float64(storedBytes)/float64(userBytes), 0)
	ms.set("peak_heap_mb", float64(p.peakHeap)/(1<<20), 0)

	for _, c := range []struct {
		name  string
		class opClass
	}{{"read", classRead}, {"write", classWrite}, {"commit", classCommit}} {
		lat := p.lat[c.class]
		ms.set(c.name+"_p50_us", quantile(lat, 0.50), len(lat))
		p99, ok := tailQuantile(lat, 0.99)
		if !ok {
			p99 = math.NaN()
		}
		ms.set(c.name+"_p99_us", p99, len(lat))
	}
	ms.set("first_row_p50_ms", quantile(p.firstRow, 0.50), len(p.firstRow))
	// Every failed or wrong-answer check of the run, over everything the
	// run attempted.
	ms.set("error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)
}

// layerMetrics fills ms with the counter- and span-derived per-layer
// metrics: spans and storage counters from the traced run, process counters
// from the measured run.
func layerMetrics(ms metricSet, measured, untraced, traced *phase, sum *traceSummary, dur *durability) {
	ops, use := float64(traced.statements()), traced.use
	ms.set("client.stmt_us", sum.stmtUS, sum.statements)
	ms.set("client.self_us", sum.selfUS, sum.statements)
	ms.set("client.calls_per_op", sum.callsPerOp, sum.statements)
	ms.set("client.rounds_per_op", sum.roundsPer, sum.statements)
	ms.set("client.hedges_per_kop",
		1000*float64(use.hedges+measured.use.hedges)/float64(traced.statements()+measured.statements()), 0)

	ms.set("transport.call_us", sum.callUS, sum.calls)
	ms.set("transport.self_us", sum.transSelfUS, sum.calls)
	ms.set("transport.first_chunk_us", sum.firstChunkUS, 0)
	ms.set("transport.bytes_sent_per_op", float64(use.bytesSent)/ops, 0)
	ms.set("transport.bytes_recv_per_op", float64(use.bytesRecv)/ops, 0)
	// The admission-wait quantile is cumulative per server, and the servers
	// of the traced run served nothing else. Shed requests are taken from
	// the measured run as well: two workers are where shedding would start.
	ms.set("transport.admit_wait_p99_us", float64(use.admitWaitP99)/1e3, 0)
	ms.set("transport.shed", float64(use.shed+measured.use.shed), 0)

	ms.set("server.handle_us", sum.handleUS, sum.handles)
	ms.set("server.requests_per_op", mean(float64(sum.handles), sum.statements), sum.statements)
	ms.set("server.handle_skew", sum.handleSkew, sum.handles)
	ms.set("server.busy_frac", sum.busyFrac, sum.handles)
	ms.set("server.rows_sent_per_row_returned", mean(float64(sum.rowsSent), sum.rowsBack), sum.rowsBack)

	lookups := int(use.cacheHits + use.cacheMisses)
	ms.set("store.cache_hit_rate", mean(float64(use.cacheHits), lookups), lookups)
	ms.set("store.cache_misses_per_op", float64(use.cacheMisses)/ops, 0)
	ms.set("store.evictions_per_op", float64(use.evictions)/ops, 0)
	ms.set("store.writebacks_per_op", float64(use.writebacks)/ops, 0)
	// A write reaches every provider of its group, so per-write counts are
	// per provider: 1 record and at most 1 fsync for an autocommit write.
	writes := (len(traced.lat[classWrite]) + len(traced.lat[classTxn])) * providersPerGroup
	ms.set("store.wal_records_per_write", mean(float64(use.walRecords), writes), writes)
	ms.set("store.wal_fsyncs_per_write", mean(float64(use.fsyncs), writes), writes)
	ms.set("store.wal_fsync_us", mean(float64(use.fsyncNanos), int(use.fsyncs))/1e3, int(use.fsyncs))
	// The slowest fsync is a lifetime maximum of the store: it includes the
	// load and the measured run, which is where a stall would show.
	ms.set("store.wal_fsync_max_us", float64(use.fsyncMaxNanos)/1e3, 0)
	// Checkpoints are counted over the measured run, whose tail latencies
	// they explain; the traced run is cut into slices with gaps between.
	ms.set("store.checkpoints", float64(measured.use.checkpoints), 0)
	ms.set("store.checkpoint_lag_records", float64(use.checkpointLag), 0)
	ms.set("store.reopen_ms", dur.reopenMS, 0)
	ms.set("store.recovered_records", float64(dur.recovered), 0)

	mops := float64(measured.statements())
	ms.set("process.allocs_per_op", float64(measured.use.mallocs)/mops, 0)
	ms.set("process.alloc_kb_per_op", float64(measured.use.allocBytes)/1024/mops, 0)
	ms.set("process.gc_cpu_frac", measured.use.gcCPU/measured.use.cpu.Seconds(), 0)
	ms.set("process.goroutines_peak", float64(measured.peakGo), 0)

	ms.set("trace.overhead_frac", 1-traced.opsPerSec()/untraced.opsPerSec(), 0)
	ms.set("trace.violations", float64(sum.violations()), 0)
}

// contractLine is the object the builder's contract wants as the last line
// of standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractJSON renders res for the driver. With trace "0" the metrics are
// the gated end-to-end ones, with "1" every name BENCHMARK.json lists under
// per_layer (the ungated end-to-end metrics among them), otherwise both. The contract wants a number for every listed
// metric, so a metric this workload does not have is reported as 0 there
// (the results file keeps it null).
func contractJSON(res *runResult, trace string) ([]byte, error) {
	line := contractLine{Correct: res.Correct, Attempted: max(res.Attempted, 1), Failed: res.Failed,
		Metrics: map[string]contractMetric{}}
	put := func(d metricDef, from metricSet) {
		cm := contractMetric{Unit: d.Unit}
		if m, ok := from[d.Name]; ok && m.Value != nil {
			cm.Value = *m.Value
		}
		line.Metrics[d.Name] = cm
	}
	for _, d := range endToEndDefs {
		if (d.Gate && trace != "1") || (!d.Gate && trace != "0") {
			put(d, res.EndToEnd)
		}
	}
	if trace != "0" {
		for _, d := range perLayerDefs {
			put(d, res.PerLayer)
		}
	}
	return json.Marshal(line)
}
