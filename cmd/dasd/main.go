// Command dasd runs one Database Service Provider: a share-space storage
// engine serving the sssdb wire protocol over TCP.
//
// Usage:
//
//	dasd -listen 127.0.0.1:7001 -dir /var/lib/dasd1 -cache-bytes 67108864
//
// With -dir, state is durable (paged row heap + write-ahead log with
// incremental checkpoints, recovered on restart); without it the provider
// is memory-only. -cache-bytes bounds resident page memory, so tables much
// larger than RAM stay servable — cold pages fault in from disk on demand.
// The provider never holds keys or plaintext: everything it stores is
// shares and opaque payloads.
//
// Admission control is server-wide: -inflight bounds concurrently
// executing requests across all connections, -queue bounds each tenant's
// wait queue (excess is shed fast with a retryable busy error), and
// -weights skews the deficit-round-robin scheduler between tenants. On
// SIGINT/SIGTERM the provider stops accepting, drains queued and
// in-flight requests for up to -drain-timeout (a second signal forces
// immediate close), checkpoints, and exits.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7001", "address to serve the provider protocol on")
	dir := flag.String("dir", "", "data directory (empty = memory-only)")
	checkpointOnStart := flag.Bool("checkpoint", false, "checkpoint and truncate the WAL after recovery")
	cacheBytes := flag.Int64("cache-bytes", 0, "page cache budget in bytes (0 = default, <0 unbounded)")
	inflight := flag.Int("inflight", 0, "server-wide max concurrently-executing requests (0 = default)")
	queue := flag.Int("queue", 0, "per-tenant admission queue bound (0 = default, <0 = no queueing)")
	weights := flag.String("weights", "", "per-tenant scheduling weights, e.g. analytics=1,serving=4")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight and queued requests")
	flag.Parse()

	tenantWeights, err := parseWeights(*weights)
	if err != nil {
		log.Fatalf("dasd: %v", err)
	}

	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			log.Fatalf("dasd: creating data dir: %v", err)
		}
	}
	st, err := store.OpenOptions(*dir, store.Options{CacheBytes: *cacheBytes})
	if err != nil {
		log.Fatalf("dasd: opening store: %v", err)
	}
	if *checkpointOnStart {
		if err := st.Checkpoint(); err != nil {
			log.Fatalf("dasd: checkpointing: %v", err)
		}
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("dasd: listen %s: %v", *listen, err)
	}
	srv := transport.NewServerWith(ln, server.New(st), transport.ServerConfig{
		MaxInflight:   *inflight,
		MaxQueue:      *queue,
		TenantWeights: tenantWeights,
	})
	fmt.Printf("dasd: serving on %s (dir=%q, tables=%d)\n", srv.Addr(), *dir, len(st.ListTables()))

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	// Graceful shutdown: stop accepting, shed new submissions, and give
	// queued and in-flight requests the drain budget to finish so their
	// responses reach clients. A second signal skips the drain.
	fmt.Printf("dasd: draining (up to %v; signal again to force)\n", *drainTimeout)
	drained := make(chan bool, 1)
	go func() { drained <- srv.Shutdown(*drainTimeout) }()
	select {
	case ok := <-drained:
		if !ok {
			log.Printf("dasd: drain timed out; closing with requests in flight")
			srv.Close()
		}
	case <-sig:
		fmt.Println("dasd: second signal; closing immediately")
		srv.Close()
	}
	if *dir != "" {
		if err := st.Checkpoint(); err != nil {
			log.Printf("dasd: final checkpoint: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		log.Printf("dasd: closing store: %v", err)
	}
}

// parseWeights parses "tenant=weight,..." into the scheduler's weight map.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	m := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("weight %q: want TENANT=N", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("weight %q: want a positive integer", part)
		}
		m[name] = w
	}
	return m, nil
}
