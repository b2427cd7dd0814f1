// Command wampde-server serves the simulation job API (internal/serve)
// over HTTP:
//
//	wampde-server -addr :8080 -workers 4 -queue 8 -cache-mb 32
//
// POST /v1/simulate runs (or replays from cache) one analysis; GET /healthz
// and GET /metrics expose liveness and the service counters. With -debug,
// net/http/pprof and expvar are mounted under /debug/.
//
// -addr-file writes the actually-bound address to a file after listening
// starts, so harnesses can pass -addr 127.0.0.1:0 and discover the port
// (see `ci.sh serve`).
//
// Persistence and cluster mode:
//
//   - -store-dir DIR enables the disk-backed second cache tier: solved
//     bodies are appended to checksummed segment files and reloaded on
//     boot, so a restarted node serves its previously-solved hashes
//     without recomputing. -prewarm solves the named paper circuits on
//     startup when absent (a restart onto a warm store skips them all).
//
//   - -store-max-mb caps the disk tier: when the segment files exceed the
//     budget, whole cold segments are garbage-collected oldest-access
//     first (see disk_gc_* in /metrics).
//
//   - -peers wires the node into a cluster: a comma-separated list of
//     member host:port addresses, where an entry of the form @FILE is
//     resolved by polling FILE for an address (the -addr-file another node
//     wrote — how a CI harness boots N nodes on free ports). Content
//     hashes are owned by R nodes (-replication, default 2) of the
//     membership's consistent-hash ring; a node forwards requests it does
//     not own to the owners in ring order, fresh solves replicate to all
//     R owners, and -heartbeat-interval exchanges epoch-stamped membership
//     views so late joins propagate. The node's own advertised address
//     defaults to the bound address and can be overridden with -self.
//
//   - -join treats -peers as seed nodes only: the node POSTs
//     /v1/cluster/join to a seed, adopts the answered membership view, and
//     streams its consistent-hash share out of the existing owners' disk
//     stores before reporting ready. Dead peers are handled by a per-peer
//     circuit breaker (-breaker-threshold/-breaker-cooldown) and retries
//     back off on a capped jittered exponential schedule
//     (-backoff-base/-backoff-max, deterministic under -backoff-seed).
//
//     wampde-server -addr 127.0.0.1:7101 -store-dir /var/lib/wampde/n1 \
//     -prewarm -peers 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 \
//     -heartbeat-interval 1s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/par"
	"repro/internal/serve"
)

// resolvePeers expands a -peers list through serve.ParsePeerList (the
// validated-before-applied parser the fuzz suite covers): literal
// host:port entries pass through, @FILE entries poll the file until it
// holds an address (another node's -addr-file, written once that node is
// listening).
func resolvePeers(spec string, timeout time.Duration) ([]string, error) {
	sources, err := serve.ParsePeerList(spec)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	var peers []string
	for _, src := range sources {
		if src.File == "" {
			peers = append(peers, src.Addr)
			continue
		}
		for {
			if b, err := os.ReadFile(src.File); err == nil && len(strings.TrimSpace(string(b))) > 0 {
				peers = append(peers, strings.TrimSpace(string(b)))
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("peer file %s not written within %v", src.File, timeout)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return peers, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	self := flag.String("self", "", "advertised cluster address (default: the bound address)")
	peers := flag.String("peers", "", "cluster peer list: comma-separated host:port or @addr-file entries (empty = single node)")
	workers := flag.Int("workers", 2, "concurrent engine solves")
	queue := flag.Int("queue", 0, "admission queue capacity (0 = 2x workers)")
	cacheMB := flag.Int("cache-mb", 32, "result cache budget in MiB (0 disables caching)")
	storeDir := flag.String("store-dir", "", "disk cache tier directory (empty disables persistence)")
	storeSegMB := flag.Int("store-segment-mb", 64, "segment roll threshold in MiB for the disk store")
	storeMaxMB := flag.Int("store-max-mb", 0, "disk tier byte cap in MiB; cold segments are GCed above it (0 = unbounded)")
	prewarm := flag.Bool("prewarm", false, "solve the named paper circuits on startup when absent from the cache tiers")
	forwardTimeout := flag.Duration("forward-timeout", 0, "per-attempt cluster forwarding budget (0 = default-deadline + 15s)")
	forwardAttempts := flag.Int("forward-attempts", 0, "transport attempts per owner when forwarding (0 = default 2)")
	replication := flag.Int("replication", 0, "owners per content hash: fresh solves replicate to all R owners (0 = default 2, 1 = single owner)")
	join := flag.Bool("join", false, "join a running cluster through the -peers seeds instead of assuming static membership")
	heartbeatInterval := flag.Duration("heartbeat-interval", 0, "membership view exchange period (0 disables heartbeats)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive transport failures that open a peer's circuit breaker (0 = default 3)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = default 2s)")
	backoffBase := flag.Duration("backoff-base", 0, "first retry backoff delay (0 = default 25ms)")
	backoffMax := flag.Duration("backoff-max", 0, "retry backoff ceiling (0 = default 500ms)")
	backoffSeed := flag.Int64("backoff-seed", 0, "deterministic seed of the retry jitter (0 = default 1)")
	maxBodyKB := flag.Int("max-body-kb", 128, "request body cap in KiB")
	defaultDeadline := flag.Duration("default-deadline", 2*time.Minute, "job deadline when the request has no deadline_ms")
	solverWorkers := flag.Int("solver-workers", 0, "worker budget of each solve's internal parallelism (0 = library default)")
	debug := flag.Bool("debug", false, "mount /debug/pprof and /debug/vars")
	flag.Parse()

	if *solverWorkers > 0 {
		par.SetWorkers(*solverWorkers)
	}

	// Listen before building the server: cluster peer resolution needs the
	// bound address (it is the default advertised identity, and writing
	// -addr-file first is what lets the other nodes' @FILE entries resolve
	// without a boot-order deadlock). Connections arriving before Serve
	// starts wait in the accept backlog.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wampde-server:", err)
		os.Exit(1)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "wampde-server:", err)
			os.Exit(1)
		}
	}

	var cluster *serve.ClusterConfig
	if *join && *peers == "" {
		fmt.Fprintln(os.Stderr, "wampde-server: -join requires -peers seed nodes")
		os.Exit(1)
	}
	if *peers != "" {
		resolved, err := resolvePeers(*peers, time.Minute)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wampde-server:", err)
			os.Exit(1)
		}
		advertised := *self
		if advertised == "" {
			advertised = ln.Addr().String()
		}
		cluster = &serve.ClusterConfig{
			Self:              advertised,
			Peers:             resolved,
			Join:              *join,
			Replication:       *replication,
			ForwardTimeout:    *forwardTimeout,
			ForwardAttempts:   *forwardAttempts,
			HeartbeatInterval: *heartbeatInterval,
			BreakerThreshold:  *breakerThreshold,
			BreakerCooldown:   *breakerCooldown,
			BackoffBase:       *backoffBase,
			BackoffMax:        *backoffMax,
			BackoffSeed:       *backoffSeed,
		}
		fmt.Fprintf(os.Stderr, "wampde-server: cluster self=%s join=%v peers=%v\n", advertised, *join, resolved)
	}

	// Config reads a zero budget as "use the default"; only a negative one
	// turns the memory tier off, which is what -cache-mb 0 asks for.
	cacheBytes, cacheDesc := int64(*cacheMB)<<20, fmt.Sprintf("%dMiB", *cacheMB)
	if cacheBytes <= 0 {
		cacheBytes, cacheDesc = -1, "off"
	}

	m := serve.NewMetrics()
	m.PublishExpvar()
	srv, err := serve.NewServer(serve.Config{
		Workers:           *workers,
		QueueCap:          *queue,
		CacheBytes:        cacheBytes,
		MaxBodyBytes:      int64(*maxBodyKB) << 10,
		DefaultDeadline:   *defaultDeadline,
		Debug:             *debug,
		StoreDir:          *storeDir,
		StoreSegmentBytes: int64(*storeSegMB) << 20,
		StoreMaxBytes:     int64(*storeMaxMB) << 20,
		Prewarm:           *prewarm,
		Cluster:           cluster,
		Metrics:           m,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wampde-server:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wampde-server: listening on %s (workers=%d queue=%d cache=%s store=%q solver-workers=%d)\n",
		ln.Addr(), *workers, *queue, cacheDesc, *storeDir, par.Workers())

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "wampde-server:", err)
			os.Exit(1)
		}
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "wampde-server: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "wampde-server: shutdown:", err)
		}
		srv.Close()
	}
}
