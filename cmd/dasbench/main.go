// Command dasbench drives open-loop load at running providers (dasd): it
// offers operations at a fixed target rate on a schedule that does not
// slow down when the servers do, so the reported latencies include queue
// wait — the coordinated-omission-free view a real client population
// would see. Operations follow a YCSB-style mix (point reads, point
// writes, short scans) over a numeric keyspace, optionally Zipf-skewed.
//
// Usage:
//
//	dasbench -providers 127.0.0.1:7001,127.0.0.1:7002 -load 10000 \
//	         -rate 500 -duration 10s -mix 50-50 -tenant bench
//
// -load creates the benchmark table on every provider and fills it with
// explicit row ids 1..N first; reuse an already-loaded table by omitting
// it. -ramp replaces -rate/-duration with a comma-separated schedule like
// "100x5s,500x10s". Busy-shed operations are reported separately from
// failures: with -retries 0 (the default here) shedding is visible rather
// than hidden behind transparent client retries.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sssdb/internal/loadgen"
	"sssdb/internal/proto"
	"sssdb/internal/transport"
	"sssdb/internal/workload"
)

const benchTable = "kv"

func key8(k uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], k)
	return b[:]
}

func parseRamp(s string) ([]loadgen.Stage, error) {
	var ramp []loadgen.Stage
	for _, part := range strings.Split(s, ",") {
		rate, durS, ok := strings.Cut(strings.TrimSpace(part), "x")
		if !ok {
			return nil, fmt.Errorf("stage %q: want RATExDURATION (e.g. 500x10s)", part)
		}
		r, err := strconv.ParseFloat(rate, 64)
		if err != nil {
			return nil, fmt.Errorf("stage %q: %v", part, err)
		}
		d, err := time.ParseDuration(durS)
		if err != nil {
			return nil, fmt.Errorf("stage %q: %v", part, err)
		}
		ramp = append(ramp, loadgen.Stage{Rate: r, Duration: d})
	}
	return ramp, nil
}

func main() {
	providers := flag.String("providers", "127.0.0.1:7001", "comma-separated provider addresses")
	loadRows := flag.Uint64("load", 0, "create the benchmark table and insert this many rows first (0 = table already loaded)")
	rate := flag.Float64("rate", 100, "target arrival rate, ops/s")
	duration := flag.Duration("duration", 10*time.Second, "offered-load window")
	ramp := flag.String("ramp", "", "stage schedule RATExDUR,RATExDUR (overrides -rate/-duration)")
	mixName := flag.String("mix", workload.MixReadHeavy.Name, "operation mix: read-heavy, 50-50, or scan-heavy")
	keys := flag.Uint64("keys", 0, "keyspace size (default: -load count, else 10000)")
	zipf := flag.Float64("zipf", 0, "Zipf key-popularity skew (>1 enables; uniform otherwise)")
	seed := flag.Int64("seed", 1, "operation stream seed")
	tenant := flag.String("tenant", "", "tenant id sent in the connection hello")
	workers := flag.Int("workers", 64, "max concurrent in-flight operations")
	retries := flag.Int("retries", -1, "transparent busy retries per op (-1 = none: report shedding)")
	jsonPath := flag.String("json", "", "also write the result as JSON to this file")
	flag.Parse()

	mix, ok := workload.MixByName(*mixName)
	if !ok {
		log.Fatalf("dasbench: unknown mix %q", *mixName)
	}
	cfg := loadgen.Config{
		Rate: *rate, Duration: *duration,
		Workers: *workers, Mix: mix, Keys: *keys, ZipfS: *zipf, Seed: *seed,
	}
	if *ramp != "" {
		stages, err := parseRamp(*ramp)
		if err != nil {
			log.Fatalf("dasbench: %v", err)
		}
		cfg.Ramp = stages
	}
	if cfg.Keys == 0 && *loadRows > 0 {
		cfg.Keys = *loadRows
	}

	var conns []transport.Conn
	for _, addr := range strings.Split(*providers, ",") {
		c, err := transport.DialWith(strings.TrimSpace(addr), transport.DialConfig{
			Timeout: 30 * time.Second, Tenant: *tenant, BusyRetries: *retries,
		})
		if err != nil {
			log.Fatalf("dasbench: dial %s: %v", addr, err)
		}
		defer c.Close()
		conns = append(conns, c)
	}

	if *loadRows > 0 {
		// The 8-byte big-endian key orders as its value does, and an index
		// takes fixed-width cells only, so it is declared an opp column.
		spec := proto.TableSpec{Name: benchTable, Columns: []proto.ColumnSpec{
			{Name: "k", Kind: proto.KindOPP, Indexed: true, Width: 8},
			{Name: "v", Kind: proto.KindPlain},
		}}
		payload := make([]byte, 64)
		for _, c := range conns {
			if resp, err := c.Call(&proto.CreateTableRequest{Spec: spec}); err != nil {
				log.Fatalf("dasbench: create table: %v", err)
			} else if er, bad := resp.(*proto.ErrorResponse); bad {
				log.Fatalf("dasbench: create table: %s", er.Msg)
			}
			const batch = 500
			for lo := uint64(1); lo <= *loadRows; lo += batch {
				rows := make([]proto.Row, 0, batch)
				for id := lo; id < lo+batch && id <= *loadRows; id++ {
					rows = append(rows, proto.Row{ID: id, Cells: [][]byte{key8(id), payload}})
				}
				if resp, err := c.Call(&proto.InsertRequest{Table: benchTable, Rows: rows}); err != nil {
					log.Fatalf("dasbench: load: %v", err)
				} else if er, bad := resp.(*proto.ErrorResponse); bad {
					log.Fatalf("dasbench: load: %s", er.Msg)
				}
			}
		}
		fmt.Printf("dasbench: loaded %d rows into %q on %d providers\n", *loadRows, benchTable, len(conns))
	}

	payload := make([]byte, 64)
	scanLimit := uint64(mix.ScanLimit)
	if scanLimit == 0 {
		scanLimit = 50
	}
	var rr atomic.Uint64
	do := func(op workload.Op) error {
		c := conns[rr.Add(1)%uint64(len(conns))]
		var req proto.Message
		switch op.Kind {
		case workload.OpWrite:
			req = &proto.UpdateRequest{Table: benchTable, Rows: []proto.Row{{ID: op.Key, Cells: [][]byte{key8(op.Key), payload}}}}
		case workload.OpScan:
			req = &proto.ScanRequest{Table: benchTable, Filter: &proto.Filter{
				Col: "k", Op: proto.FilterRange, Lo: key8(op.Key), Hi: key8(op.Key + scanLimit - 1),
			}, Limit: scanLimit}
		default:
			req = &proto.ScanRequest{Table: benchTable, Filter: &proto.Filter{
				Col: "k", Op: proto.FilterEq, Lo: key8(op.Key),
			}, Limit: 1}
		}
		resp, err := c.Call(req)
		if err != nil {
			return err
		}
		if er, bad := resp.(*proto.ErrorResponse); bad {
			return er.Err()
		}
		return nil
	}

	res := loadgen.Run(cfg, do)
	fmt.Printf("dasbench: offered %d ops over %v (window %v)\n", res.Offered, res.Elapsed.Round(time.Millisecond), res.Window)
	fmt.Printf("  completed %d (%.0f ops/s goodput)  busy %d  failed %d  dropped %d\n",
		res.Completed, res.Goodput(), res.Busy, res.Failed, res.Dropped)
	fmt.Printf("  latency p50 %v  p99 %v  p99.9 %v (open-loop: queue wait included)\n",
		res.Latency.Quantile(0.50).Round(time.Microsecond),
		res.Latency.Quantile(0.99).Round(time.Microsecond),
		res.Latency.Quantile(0.999).Round(time.Microsecond))

	if *jsonPath != "" {
		out := map[string]any{
			"mix": mix.Name, "offered": res.Offered, "completed": res.Completed,
			"busy": res.Busy, "failed": res.Failed, "dropped": res.Dropped,
			"window_ns": res.Window, "elapsed_ns": res.Elapsed,
			"goodput_ops": res.Goodput(),
			"p50_ns":      res.Latency.Quantile(0.50),
			"p99_ns":      res.Latency.Quantile(0.99),
			"p999_ns":     res.Latency.Quantile(0.999),
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatalf("dasbench: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("dasbench: %v", err)
		}
		fmt.Printf("dasbench: wrote %s\n", *jsonPath)
	}
	if res.Failed > 0 {
		os.Exit(1)
	}
}
