package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/faultinject"
)

// Cluster mode: consistent-hash ownership of content hashes over a
// dynamic, epoch-versioned membership (membership.go). Each hash has R
// owners (Owners, successor-distinct): the primary dedups the solve
// cluster-wide through its single-flight group, and every fresh solve is
// written through to the remaining owners (replicate.go), so any single
// node death loses neither availability nor cached bytes. A node
// receiving a request it is not primary for forwards it to the owners in
// ring order, skipping peers whose circuit breaker is open (breaker.go)
// and retrying transport failures with capped jittered exponential
// backoff; only when every owner is unreachable does it degrade to a
// local solve (trading global dedup for availability). A forwarded
// request is never re-forwarded, so inconsistent membership views cannot
// produce routing loops.

// forwardHeader marks a forwarded request. The owner solves it locally
// unconditionally; a node never re-forwards, so inconsistent peer lists
// cannot produce forwarding loops.
const forwardHeader = "X-Wampde-Forward"

// originHeader names the node that actually served a proxied response.
const originHeader = "X-Wampde-Origin"

// ClusterConfig wires one node into a cluster.
type ClusterConfig struct {
	// Self is this node's advertised address (host:port), as it appears in
	// the peer lists of the other nodes.
	Self string
	// Peers seeds the membership: other nodes' advertised addresses, in
	// any order, with or without Self included. With Join unset this is
	// the boot membership (epoch 1); with Join set these are the seed
	// nodes asked to admit this node.
	Peers []string
	// Join, when set, boots this node into an existing cluster: it asks
	// the Peers (seed nodes) to admit it, adopts the answered membership
	// view, and pulls its consistent-hash share from the other members
	// via segment-streamed handoff before reporting ready.
	Join bool
	// Replicas is the virtual-node count per peer on the hash ring
	// (default 64).
	Replicas int
	// Replication is R, the number of owners per content hash (default 2;
	// 1 disables replication and restores single-owner PR-8 semantics).
	Replication int
	// ForwardTimeout bounds one forwarding attempt end to end (default:
	// the server's DefaultDeadline plus 15 seconds of proxy slack, so a
	// forwarded solve can use its whole budget before the proxy gives up).
	ForwardTimeout time.Duration
	// ForwardAttempts is the per-owner transport-retry budget of one
	// forwarded request (default 2: the original try plus one retry).
	ForwardAttempts int
	// HeartbeatInterval paces the membership/health heartbeat loop
	// (default 0 = disabled, as is cmd/wampde-server's -heartbeat-interval;
	// its usage example sets 1s).
	HeartbeatInterval time.Duration
	// BreakerThreshold is K, the consecutive transport failures that open
	// a peer's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker short-circuits before
	// allowing a half-open probe (default 2s).
	BreakerCooldown time.Duration
	// BackoffBase and BackoffMax shape the capped jittered exponential
	// retry backoff (defaults 25ms and 500ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BackoffSeed seeds the jitter PRNG; any fixed seed makes the retry
	// schedule exactly reproducible (default 1).
	BackoffSeed int64
	// ReplQueueCap bounds the async replication queue (default 256).
	ReplQueueCap int
}

// forwarder is the bounded HTTP client a node uses to reach hash owners.
type forwarder struct {
	client   *http.Client
	timeout  time.Duration
	attempts int
	bo       *backoff
	breakers *breakerSet
	m        *Metrics
}

func newForwarder(timeout time.Duration, attempts int, bo *backoff, breakers *breakerSet, m *Metrics) *forwarder {
	if attempts <= 0 {
		attempts = 2
	}
	return &forwarder{
		client: &http.Client{
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     60 * time.Second,
			},
		},
		timeout:  timeout,
		attempts: attempts,
		bo:       bo,
		breakers: breakers,
		m:        m,
	}
}

// simulate forwards a raw /v1/simulate body to the hash's owners, in ring
// order, and returns the first verbatim response along with the owner that
// answered. Per owner: an open circuit breaker skips it outright; a
// transport-level failure (connection refused, reset, stale pooled
// connection, injected fault) is retried up to the attempt budget with
// capped jittered backoff, feeding the breaker each time. An HTTP response
// of any status ends the search — the owner answered, and its answer
// (including its error mapping) is authoritative. Only when every owner is
// exhausted does simulate return an error (the caller's local-solve
// fallback).
func (f *forwarder) simulate(ctx context.Context, owners []string, raw []byte) (status int, xcache string, body []byte, origin string, err error) {
	f.m.ForwardAttempts.Add(1)
	t0 := time.Now()
	defer func() { f.m.ForwardNS.Add(time.Since(t0).Nanoseconds()) }()
	err = fmt.Errorf("serve: no reachable owner")
	for _, owner := range owners {
		for attempt := 0; attempt < f.attempts; attempt++ {
			if !f.breakers.allow(owner) {
				break // open breaker: skip this owner entirely
			}
			if attempt > 0 {
				f.m.ForwardRetries.Add(1)
				select {
				case <-time.After(f.bo.delay(attempt - 1)):
				case <-ctx.Done():
					return 0, "", nil, "", ctx.Err()
				}
			}
			status, xcache, body, err = f.post(ctx, owner, raw)
			if err == nil {
				f.breakers.success(owner)
				f.m.ForwardOK.Add(1)
				return status, xcache, body, owner, nil
			}
			f.breakers.failure(owner)
			if ctx.Err() != nil {
				return 0, "", nil, "", err
			}
		}
	}
	return 0, "", nil, "", err
}

func (f *forwarder) post(ctx context.Context, owner string, raw []byte) (int, string, []byte, error) {
	if faultinject.Fire(faultinject.SiteForwardTransport) {
		return 0, "", nil, fmt.Errorf("serve: injected forward transport failure to %s", owner)
	}
	ctx, cancel := context.WithTimeout(ctx, f.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+owner+"/v1/simulate", strings.NewReader(string(raw)))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardHeader, "1")
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, nil
}

// prewarmSet is the boot-time cache warming list: the named paper circuits
// (vacuum and air MEMS VCOs) plus small ring-VCO stage counts, each as a
// short fixed-step transient — cheap, deterministic solves whose hashes are
// stable across every node and every boot. Prewarm solves any entry absent
// from the cache tiers and persists it, so a node restarted onto its disk
// store skips all of them (the skip is itself the disk tier's boot
// self-check). The set is a pure function of nothing: all nodes agree on it.
func prewarmSet() []*Canonical {
	reqs := []Request{
		{Circuit: CircuitPaperVCO, Analysis: AnalysisTransient, Options: RequestOptions{TStop: 2e-6, H: 1e-8}},
		{Circuit: CircuitPaperVCOAir, Analysis: AnalysisTransient, Options: RequestOptions{TStop: 2e-6, H: 1e-8}},
		{Circuit: CircuitRingVCO + "?stages=3", Analysis: AnalysisTransient, Options: RequestOptions{TStop: 2e-6, H: 1e-8}},
		{Circuit: CircuitRingVCO + "?stages=5", Analysis: AnalysisTransient, Options: RequestOptions{TStop: 2e-6, H: 1e-8}},
		// One converter start-up slice keeps the switched-circuit solve path
		// (BDF2 + relaxed Newton, zero-state start) exercised by every boot
		// and its bytes flowing through replication and handoff.
		{Circuit: CircuitBuckConverter + "?duty=0.5&fsw=1e5", Analysis: AnalysisTransient, Options: RequestOptions{TStop: 2e-4, H: 5e-8}},
	}
	out := make([]*Canonical, 0, len(reqs))
	for i := range reqs {
		c, err := reqs[i].Canonicalize()
		if err != nil {
			// The set is static and covered by tests; a failure here is a
			// programming error, not an input error.
			panic("serve: prewarm set: " + err.Error())
		}
		out = append(out, c)
	}
	return out
}

// PrewarmHashes returns the content hashes of the prewarm set, in order.
// Harnesses (cmd/wampde-load) use it to compute which keys a joining node
// is owed without re-deriving the canonical encoding.
func PrewarmHashes() []string {
	set := prewarmSet()
	out := make([]string, len(set))
	for i, c := range set {
		out[i] = c.Hash()
	}
	return out
}

// prewarm solves every absent prewarm entry sequentially, bypassing the
// admission queue (boot work must not occupy client slots) but joining the
// single-flight group so a concurrent client request for the same hash
// still coalesces. Every node prewarms the full set locally — the set is
// small and global, and a warm local copy on every node is the point.
func (s *Server) prewarm(ctx context.Context) {
	defer s.prewarmWG.Done()
	defer s.prewarmDone.Store(true)
	for _, c := range prewarmSet() {
		if ctx.Err() != nil {
			return
		}
		hash := c.Hash()
		if body, _ := s.lookup(hash); body != nil {
			s.m.PrewarmSkipped.Add(1)
			continue
		}
		f, leader := s.flights.join(hash)
		if !leader {
			<-f.done
			continue
		}
		jctx, cancel := context.WithTimeout(ctx, s.cfg.DefaultDeadline)
		status, body := s.runJob(jctx, hash, c)
		cancel()
		if status == http.StatusOK {
			s.persist(hash, body)
			s.m.PrewarmSolved.Add(1)
		}
		s.flights.complete(hash, f, flightResult{status: status, body: body})
	}
}
