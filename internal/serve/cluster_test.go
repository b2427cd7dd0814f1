package serve

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testCluster is an in-process N-node cluster: real TCP listeners (so
// forwarding exercises the actual HTTP client) with per-node fake engines.
type testCluster struct {
	addrs   []string
	servers []*Server
	engines []*fakeEngine
	https   []*http.Server
}

func newTestCluster(t *testing.T, n int, cfg func(i int) Config) *testCluster {
	t.Helper()
	tc := &testCluster{}
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		tc.addrs = append(tc.addrs, ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		c := cfg(i)
		eng, _ := c.Engine.(*fakeEngine)
		tc.engines = append(tc.engines, eng)
		// Preserve a caller-provided cluster config (Replication, breaker and
		// backoff knobs, heartbeat interval); fill in the wiring only.
		if c.Cluster == nil {
			c.Cluster = &ClusterConfig{}
		}
		c.Cluster.Self = tc.addrs[i]
		if len(c.Cluster.Peers) == 0 {
			c.Cluster.Peers = tc.addrs
		}
		s, err := NewServer(c)
		if err != nil {
			t.Fatalf("NewServer node %d: %v", i, err)
		}
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(lns[i])
		tc.servers = append(tc.servers, s)
		tc.https = append(tc.https, hs)
	}
	t.Cleanup(func() {
		for i := range tc.https {
			tc.https[i].Close()
			tc.servers[i].Close()
		}
	})
	return tc
}

// kill closes node i's listener and connections — the in-process stand-in
// for a crashed node.
func (tc *testCluster) kill(i int) { tc.https[i].Close() }

// idx maps an advertised address back to its node index.
func (tc *testCluster) idx(t *testing.T, addr string) int {
	t.Helper()
	for i, a := range tc.addrs {
		if a == addr {
			return i
		}
	}
	t.Fatalf("address %s not in cluster", addr)
	return -1
}

// add boots one more node into the cluster after the fact (the join-mode
// path) on a fresh listener; see addOn.
func (tc *testCluster) add(t *testing.T, c Config) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return tc.addOn(t, ln, c)
}

// addOn boots one more node on ln, which the caller may have bound early to
// learn the node's address: a server built from c with the cluster wiring
// filled in, appended to the cluster's bookkeeping. Returns its index.
func (tc *testCluster) addOn(t *testing.T, ln net.Listener, c Config) int {
	t.Helper()
	addr := ln.Addr().String()
	eng, _ := c.Engine.(*fakeEngine)
	if c.Cluster == nil {
		c.Cluster = &ClusterConfig{}
	}
	c.Cluster.Self = addr
	s, err := NewServer(c)
	if err != nil {
		ln.Close()
		t.Fatalf("NewServer joiner: %v", err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	tc.addrs = append(tc.addrs, addr)
	tc.servers = append(tc.servers, s)
	tc.engines = append(tc.engines, eng)
	tc.https = append(tc.https, hs)
	i := len(tc.servers) - 1
	t.Cleanup(func() { tc.https[i].Close(); tc.servers[i].Close() })
	return i
}

// waitReplDrained waits until every node's replication queue is empty and
// accounted for (enqueued == sent + failed) — the quiescence point after
// which replica stores are stable.
func (tc *testCluster) waitReplDrained(t *testing.T) {
	t.Helper()
	waitFor(t, "replication drain", func() bool {
		for _, s := range tc.servers {
			if s.m.ReplQueueDepth.Load() != 0 ||
				s.m.ReplEnqueued.Load() != s.m.ReplSent.Load()+s.m.ReplFailed.Load() {
				return false
			}
		}
		return true
	})
}

func (tc *testCluster) totalSolves() int {
	total := 0
	for _, e := range tc.engines {
		if e != nil {
			total += e.Solves()
		}
	}
	return total
}

// hashOf canonicalizes a request body the way the server does and returns
// its content hash.
func hashOf(t *testing.T, body string) string {
	t.Helper()
	req, err := DecodeRequest(strings.NewReader(body))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	c, err := req.Canonicalize()
	if err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	return c.Hash()
}

// TestClusterGlobalDedup is the single-owner contract (Replication 1): the
// same request posted to every node must solve exactly once cluster-wide
// (the owner's single-flight group, reached by forwarding) and every node
// must return bitwise-identical bytes. Replication 1 keeps the origin
// assertions deterministic — with R > 1 the async write-through may land a
// replica on a secondary owner between posts, which is its own test.
func TestClusterGlobalDedup(t *testing.T) {
	tc := newTestCluster(t, 3, func(i int) Config {
		return Config{Workers: 2, QueueCap: 8, Engine: &fakeEngine{},
			Cluster: &ClusterConfig{Replication: 1}}
	})
	owner := NewRing(tc.addrs, 0).Owner(hashOf(t, transientReq))

	var first []byte
	for i, addr := range tc.addrs {
		resp, body := post(t, "http://"+addr, transientReq)
		if resp.StatusCode != 200 {
			t.Fatalf("node %d: status %d (%s)", i, resp.StatusCode, body)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(first, body) {
			t.Fatalf("node %d returned different bytes than node 0", i)
		}
		if addr != owner {
			if origin := resp.Header.Get(originHeader); origin != owner {
				t.Errorf("node %d: X-Wampde-Origin %q, want owner %s", i, origin, owner)
			}
		}
	}
	if got := tc.totalSolves(); got != 1 {
		t.Fatalf("cluster solved %d times for one distinct hash, want 1", got)
	}

	// Second round: every node now answers from memory without forwarding
	// (the non-owners edge-cached the owner's bytes on the first pass).
	var fwdBefore int64
	for _, s := range tc.servers {
		fwdBefore += s.m.ForwardAttempts.Load()
	}
	for i, addr := range tc.addrs {
		resp, body := post(t, "http://"+addr, transientReq)
		if resp.StatusCode != 200 || !bytes.Equal(first, body) {
			t.Fatalf("node %d repeat: status %d, identical=%v", i, resp.StatusCode, bytes.Equal(first, body))
		}
		if xc := resp.Header.Get("X-Cache"); xc != "hit" {
			t.Errorf("node %d repeat: X-Cache %q, want hit", i, xc)
		}
	}
	var fwdAfter int64
	for _, s := range tc.servers {
		fwdAfter += s.m.ForwardAttempts.Load()
	}
	if fwdAfter != fwdBefore {
		t.Errorf("repeat round forwarded %d times, want 0 (edge cache must absorb repeats)", fwdAfter-fwdBefore)
	}
	if got := tc.totalSolves(); got != 1 {
		t.Fatalf("repeat round re-solved: %d total solves, want 1", got)
	}
}

// TestClusterForwardedInSolvesLocally: a request carrying the forward marker
// is solved by the receiver even when the local ring disagrees — the
// no-re-forward rule that makes routing loops impossible.
func TestClusterForwardedInSolvesLocally(t *testing.T) {
	tc := newTestCluster(t, 3, func(i int) Config {
		return Config{Workers: 2, QueueCap: 8, Engine: &fakeEngine{}}
	})
	owner := NewRing(tc.addrs, 0).Owner(hashOf(t, transientReq))
	var notOwner int
	for i, a := range tc.addrs {
		if a != owner {
			notOwner = i
			break
		}
	}
	req, err := http.NewRequest("POST", "http://"+tc.addrs[notOwner]+"/v1/simulate", strings.NewReader(transientReq))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := tc.engines[notOwner].Solves(); got != 1 {
		t.Fatalf("marked-forwarded request solved %d times on the receiver, want 1 (no re-forward)", got)
	}
	if got := tc.servers[notOwner].m.ForwardAttempts.Load(); got != 0 {
		t.Fatalf("receiver attempted %d forwards for a marked request, want 0", got)
	}
}

// TestClusterOwnerDownFallback: with Replication 1 (no replicas to fail
// over to) and the hash owner dead, a surviving node must retry once, fall
// back to a local solve, and still answer 200 — availability over dedup.
func TestClusterOwnerDownFallback(t *testing.T) {
	tc := newTestCluster(t, 3, func(i int) Config {
		return Config{Workers: 2, QueueCap: 8, Engine: &fakeEngine{},
			Cluster: &ClusterConfig{Replication: 1, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond}}
	})
	owner := NewRing(tc.addrs, 0).Owner(hashOf(t, transientReq))
	ownerIdx, entryIdx := -1, -1
	for i, a := range tc.addrs {
		if a == owner {
			ownerIdx = i
		} else if entryIdx < 0 {
			entryIdx = i
		}
	}
	tc.kill(ownerIdx)

	resp, body := post(t, "http://"+tc.addrs[entryIdx], transientReq)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d with owner down (%s)", resp.StatusCode, body)
	}
	entry := tc.servers[entryIdx]
	if got := entry.m.ForwardFallbacks.Load(); got != 1 {
		t.Fatalf("ForwardFallbacks = %d, want 1", got)
	}
	if got := tc.engines[entryIdx].Solves(); got != 1 {
		t.Fatalf("entry node solved %d times, want 1 (local fallback)", got)
	}
	if got := tc.engines[ownerIdx].Solves(); got != 0 {
		t.Fatalf("dead owner solved %d times", got)
	}
}

// TestClusterDiskWarmRestart: a server restarted over its store directory
// must serve previously-solved hashes from disk — byte-identical, zero
// engine solves — and promote them into memory.
func TestClusterDiskWarmRestart(t *testing.T) {
	dir := t.TempDir()
	eng1 := &fakeEngine{}
	s1, err := NewServer(Config{Workers: 2, QueueCap: 8, Engine: eng1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp, body1 := post(t, ts1.URL, transientReq)
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first solve: status %d X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	ts1.Close()
	s1.Close()

	eng2 := &fakeEngine{err: fmt.Errorf("must not be called")}
	s2, err := NewServer(Config{Workers: 2, QueueCap: 8, Engine: eng2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Close() }()

	resp, body2 := post(t, ts2.URL, transientReq)
	if resp.StatusCode != 200 {
		t.Fatalf("restart replay: status %d (%s)", resp.StatusCode, body2)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "hit-disk" {
		t.Fatalf("restart replay: X-Cache %q, want hit-disk", xc)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("restart replay returned different bytes than the original solve")
	}
	if got := eng2.Solves(); got != 0 {
		t.Fatalf("restarted server re-solved %d times, want 0", got)
	}
	// The disk hit was promoted: the next lookup is a memory hit.
	resp, _ = post(t, ts2.URL, transientReq)
	if xc := resp.Header.Get("X-Cache"); xc != "hit" {
		t.Fatalf("post-promotion: X-Cache %q, want hit", xc)
	}
	if got := s2.m.DiskHits.Load(); got != 1 {
		t.Fatalf("DiskHits = %d, want 1", got)
	}
}

// TestPrewarm: a cold boot solves the whole prewarm set and gates readiness
// on it; a restart over the resulting store skips every entry via disk.
func TestPrewarm(t *testing.T) {
	dir := t.TempDir()
	want := len(prewarmSet())

	// Cold boot: readiness must hold until the gated engine releases.
	eng1 := &fakeEngine{gate: make(chan struct{})}
	s1, err := NewServer(Config{Workers: 2, QueueCap: 8, Engine: eng1, StoreDir: dir, Prewarm: true})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	healthz := func(ts *httptest.Server) string {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 512)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}
	if body := healthz(ts1); !strings.Contains(body, `"ready":false`) {
		t.Fatalf("healthz during prewarm: %s, want ready:false", body)
	}
	close(eng1.gate)
	waitFor(t, "prewarm completion", func() bool { return s1.prewarmDone.Load() })
	if body := healthz(ts1); !strings.Contains(body, `"ready":true`) {
		t.Fatalf("healthz after prewarm: %s, want ready:true", body)
	}
	if got := s1.m.PrewarmSolved.Load(); got != int64(want) {
		t.Fatalf("cold boot PrewarmSolved = %d, want %d", got, want)
	}
	if got := eng1.Solves(); got != want {
		t.Fatalf("cold boot solved %d times, want %d", got, want)
	}
	ts1.Close()
	s1.Close()

	// Warm restart: the whole set comes back from disk, nothing re-solves.
	eng2 := &fakeEngine{err: fmt.Errorf("must not be called")}
	s2, err := NewServer(Config{Workers: 2, QueueCap: 8, Engine: eng2, StoreDir: dir, Prewarm: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	waitFor(t, "restart prewarm completion", func() bool { return s2.prewarmDone.Load() })
	if got := s2.m.PrewarmSkipped.Load(); got != int64(want) {
		t.Fatalf("restart PrewarmSkipped = %d, want %d", got, want)
	}
	if got := s2.m.PrewarmSolved.Load(); got != 0 {
		t.Fatalf("restart PrewarmSolved = %d, want 0", got)
	}
	if got := s2.m.DiskHits.Load(); got != int64(want) {
		t.Fatalf("restart DiskHits = %d, want %d", got, want)
	}
	if got := eng2.Solves(); got != 0 {
		t.Fatalf("restart solved %d times, want 0", got)
	}
}

// TestClusterHealthz: cluster mode annotates /healthz with the node identity
// and membership size.
func TestClusterHealthz(t *testing.T) {
	tc := newTestCluster(t, 3, func(i int) Config {
		return Config{Workers: 1, Engine: &fakeEngine{}}
	})
	resp, err := http.Get("http://" + tc.addrs[0] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	if !strings.Contains(body, `"cluster_nodes":3`) {
		t.Fatalf("healthz %s, want cluster_nodes:3", body)
	}
	if !strings.Contains(body, tc.addrs[0]) {
		t.Fatalf("healthz %s, want node identity %s", body, tc.addrs[0])
	}
}
