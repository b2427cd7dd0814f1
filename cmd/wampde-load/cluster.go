package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/serve"
)

// Cluster phases. -cluster takes the base URLs of every live node and drives
// the whole membership through one gated phase:
//
//   - mix: every distinct request is posted to every node, twice (the second
//     round shuffled). Gates: all 200, responses for the same request are
//     bitwise identical no matter which node served them, the cluster solved
//     each distinct hash exactly once (global single-flight through
//     forwarding), forwarding actually happened, and — with -cluster-
//     replication R > 1 — every fresh solve was written through to its
//     R-1 replica owners (repl_sent/repl_received match exactly, zero
//     failures, queue drained). Saves the canonical bodies to
//     -cluster-bodies for the replay-style phases.
//   - restart: replays the saved bodies against the one restarted node
//     (-cluster-restarted). Gates: all 200 and byte-identical to the saved
//     bodies, zero new engine solves anywhere in the cluster (the restarted
//     node serves from its disk store or forwards to warm peers), and the
//     restarted node's boot showed disk activity (disk_hits ≥ 1,
//     prewarm_skipped ≥ 1 — its prewarm set came back from disk).
//   - replay: replays the saved bodies against every listed node, gating
//     only 200 + byte-identity. No solve accounting — this is the
//     mid-join background traffic, where a request may race the handoff
//     and legally re-solve on the joining node (≤ R solves per hash).
//   - kill: the zero-loss gate after a node death. Replays the saved
//     bodies against the survivors; every reply must be 200 and
//     byte-identical with zero new engine solves cluster-wide and zero
//     5xx — the dead owner's share is served from its replicas, not
//     recomputed.
//   - join: gates the handoff a joined node (-cluster-joined) received.
//     Waits for every node's membership view to converge on the grown
//     cluster, recomputes the joiner's consistent-hash share of the known
//     key universe (prewarm set + saved mix bodies) with the same ring
//     the servers use, and checks the joiner received only that share
//     (handoff_keys_received ≤ share ≤ received + its mid-traffic
//     solves), rejected nothing, and that the moved-key count respects
//     the rebalance bound pinned in shard_test.go.
//   - breaker: exercises failure detection against a dead owner
//     (-cluster-dead, with -cluster-ring the full membership). Posts
//     fresh requests whose primary is the dead node through one survivor;
//     gates all 200 with zero 5xx while breaker_opens ≥ 1,
//     breaker_short_circuits ≥ 1 and the jittered-backoff retry paths
//     (forward_retries + repl_retries) fired.
//   - down: -cluster lists only the surviving nodes. Fresh distinct requests
//     are spread across them. Gates: all 200 with zero 5xx (the dead owner's
//     share degrades to local solves, it does not error), and at least one
//     forward fallback was taken. The legacy single-owner (R = 1) shape of
//     the kill phase.

// waitReady polls url/healthz until the body reports `"ready":true` (prewarm
// finished), the stand-in for curl in `ci.sh cluster`.
func waitReady(url string, timeout time.Duration) error {
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		resp, err := client.Get(strings.TrimRight(url, "/") + "/healthz")
		if err == nil {
			body, rerr := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == 200 && bytes.Contains(body, []byte(`"ready":true`)) {
				return nil
			}
			last = fmt.Errorf("status %d (%.200s)", resp.StatusCode, body)
		} else {
			last = err
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready within %v: %v", url, timeout, last)
}

// postTo is h.post against an explicit node instead of the fixed -url.
func (h *harness) postTo(base, body string) (status int, xcache string, data []byte, err error) {
	resp, err := h.client.Post(strings.TrimRight(base, "/")+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), data, err
}

func (h *harness) metricsAt(base, phase string) map[string]int64 {
	resp, err := h.client.Get(strings.TrimRight(base, "/") + "/metrics")
	if err != nil {
		h.errf("%s: metrics %s: %v", phase, base, err)
		return nil
	}
	defer resp.Body.Close()
	m := map[string]int64{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		h.errf("%s: metrics %s decode: %v", phase, base, err)
		return nil
	}
	return m
}

// clusterMetrics snapshots every node's counters, index-aligned with nodes.
func (h *harness) clusterMetrics(nodes []string, phase string) []map[string]int64 {
	out := make([]map[string]int64, len(nodes))
	for i, n := range nodes {
		if out[i] = h.metricsAt(n, phase); out[i] == nil {
			return nil
		}
	}
	return out
}

// sumDelta totals key across the cluster between two snapshots.
func sumDelta(m0, m1 []map[string]int64, key string) int64 {
	var d int64
	for i := range m1 {
		d += m1[i][key] - m0[i][key]
	}
	return d
}

// sumAbs totals key across one snapshot.
func sumAbs(m []map[string]int64, key string) int64 {
	var d int64
	for i := range m {
		d += m[i][key]
	}
	return d
}

// waitReplDrained polls every node until its replication queue is empty and
// fully accounted (enqueued == sent + failed) — the quiescence point after
// which replica stores and the repl_* counters are stable.
func (h *harness) waitReplDrained(nodes []string, phase string, timeout time.Duration) []map[string]int64 {
	deadline := time.Now().Add(timeout)
	for {
		m := h.clusterMetrics(nodes, phase)
		if m == nil {
			return nil
		}
		drained := true
		for i := range m {
			if m[i]["repl_queue_depth"] != 0 || m[i]["repl_enqueued"] != m[i]["repl_sent"]+m[i]["repl_failed"] {
				drained = false
			}
		}
		if drained {
			return m
		}
		if time.Now().After(deadline) {
			h.errf("%s: replication queue did not drain within %v", phase, timeout)
			return m
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// hashOfReq canonicalizes a request body exactly the way the server does
// and returns its content hash — what lets the harness recompute ring
// ownership of the traffic it generated.
func hashOfReq(body string) (string, error) {
	req, err := serve.DecodeRequest(strings.NewReader(body))
	if err != nil {
		return "", err
	}
	c, err := req.Canonicalize()
	if err != nil {
		return "", err
	}
	return c.Hash(), nil
}

// nodeAddr strips the scheme from a base URL, yielding the advertised
// host:port the ring hashes.
func nodeAddr(base string) string {
	base = strings.TrimRight(base, "/")
	base = strings.TrimPrefix(base, "http://")
	return strings.TrimPrefix(base, "https://")
}

// clusterBody is one saved canonical response: the request that produced it
// and the exact bytes every node must keep returning for it.
type clusterBody struct {
	Req  string          `json:"req"`
	Body json.RawMessage `json:"body"`
}

// runClusterMix is the healthy-cluster phase: D distinct requests, each
// posted to every node twice (second round in seeded-shuffled order).
func runClusterMix(h *harness, nodes []string, bodiesPath string, distinct int, seed int64, replication int, check bool) {
	reqs := make([]string, distinct)
	for i := range reqs {
		reqs[i] = sweepRequest(1.5+0.05*float64(i), 2e-6, 1e-8)
	}
	m0 := h.clusterMetrics(nodes, "cluster-mix")
	if m0 == nil {
		return
	}

	// Round 1 in order, round 2 shuffled: the second visit to any (request,
	// node) pair must be served from a cache tier somewhere, and all replies
	// for a request must be the same bytes regardless of the serving node.
	type post struct{ req, node int }
	var posts []post
	for i := range reqs {
		for n := range nodes {
			posts = append(posts, post{i, n})
		}
	}
	round2 := append([]post(nil), posts...)
	rand.New(rand.NewSource(seed)).Shuffle(len(round2), func(i, j int) { round2[i], round2[j] = round2[j], round2[i] })
	posts = append(posts, round2...)

	canonical := make([][]byte, distinct)
	var lat []time.Duration
	bad := 0
	t0 := time.Now()
	for _, p := range posts {
		pt0 := time.Now()
		status, _, body, err := h.postTo(nodes[p.node], reqs[p.req])
		lat = append(lat, time.Since(pt0))
		if err != nil || status != 200 {
			h.errf("cluster-mix: req %d via node %d: status %d err %v", p.req, p.node, status, err)
			bad++
			continue
		}
		if canonical[p.req] == nil {
			canonical[p.req] = body
		} else if !bytes.Equal(canonical[p.req], body) {
			h.errf("cluster-mix: req %d: node %d returned different bytes than the first reply", p.req, p.node)
			bad++
		}
	}
	elapsed := time.Since(t0)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })

	// Quiesce the async write-through before reading counters: replica
	// stores are only stable once every queue drained.
	m1 := h.waitReplDrained(nodes, "cluster-mix", 30*time.Second)
	if m1 == nil {
		return
	}
	solves := sumDelta(m0, m1, "solves")
	fwdOK := sumDelta(m0, m1, "forward_ok")
	fwdIn := sumDelta(m0, m1, "forwarded_in")
	replSent := sumDelta(m0, m1, "repl_sent")
	replReceived := sumDelta(m0, m1, "repl_received")
	fmt.Printf("cluster-mix: %d posts (%d distinct x %d nodes x 2 rounds) in %v — %d engine solves, %d forwards served, %d forwarded-in, %d replicas delivered\n",
		len(posts), distinct, len(nodes), elapsed.Round(time.Millisecond), solves, fwdOK, fwdIn, replReceived)
	fmt.Printf("cluster-mix: latency p50 %v  p99 %v  max %v\n",
		percentile(lat, 0.50).Round(time.Microsecond), percentile(lat, 0.99).Round(time.Microsecond),
		lat[len(lat)-1].Round(time.Microsecond))

	if check {
		if bad > 0 {
			h.errf("cluster-mix: %d failed or divergent posts", bad)
		}
		if solves != int64(distinct) {
			h.errf("cluster-mix: cluster solved %d times for %d distinct hashes, want exactly one solve per hash", solves, distinct)
		}
		if fwdOK < 1 {
			h.errf("cluster-mix: no successful forwards — cross-node ownership never exercised")
		}
		if fwdIn < 1 {
			h.errf("cluster-mix: no node received a forwarded request")
		}
		if replication > 1 {
			// Each fresh solve writes through to its R-1 replica owners; on a
			// healthy cluster every push lands exactly once.
			want := int64(distinct * (replication - 1))
			if replSent != want {
				h.errf("cluster-mix: repl_sent = %d, want %d (%d solves x %d replicas each)", replSent, want, distinct, replication-1)
			}
			if replReceived != want {
				h.errf("cluster-mix: repl_received = %d, want %d — a write-through went missing", replReceived, want)
			}
			if failed := sumDelta(m0, m1, "repl_failed"); failed != 0 {
				h.errf("cluster-mix: repl_failed = %d on a healthy cluster, want 0", failed)
			}
			if dropped := sumDelta(m0, m1, "repl_queue_full"); dropped != 0 {
				h.errf("cluster-mix: repl_queue_full = %d, want 0 (queue sized below the mix)", dropped)
			}
		}
	}
	if bodiesPath != "" {
		saved := make([]clusterBody, 0, distinct)
		for i, b := range canonical {
			if b != nil {
				saved = append(saved, clusterBody{Req: reqs[i], Body: b})
			}
		}
		data, err := json.Marshal(saved)
		if err == nil {
			err = os.WriteFile(bodiesPath, data, 0o644)
		}
		if err != nil {
			h.errf("cluster-mix: saving bodies to %s: %v", bodiesPath, err)
		}
	}
}

// runClusterRestart replays the mix phase's saved bodies against a node that
// was killed and restarted onto its disk store.
func runClusterRestart(h *harness, nodes []string, restarted, bodiesPath string, check bool) {
	if restarted == "" || bodiesPath == "" {
		h.errf("cluster-restart: -cluster-restarted and -cluster-bodies are required")
		return
	}
	data, err := os.ReadFile(bodiesPath)
	if err != nil {
		h.errf("cluster-restart: %v", err)
		return
	}
	var saved []clusterBody
	if err := json.Unmarshal(data, &saved); err != nil {
		h.errf("cluster-restart: decoding %s: %v", bodiesPath, err)
		return
	}
	if len(saved) == 0 {
		h.errf("cluster-restart: %s holds no bodies", bodiesPath)
		return
	}

	m0 := h.clusterMetrics(nodes, "cluster-restart")
	if m0 == nil {
		return
	}
	bad := 0
	for i, s := range saved {
		status, _, body, err := h.postTo(restarted, s.Req)
		if err != nil || status != 200 {
			h.errf("cluster-restart: replay %d: status %d err %v", i, status, err)
			bad++
			continue
		}
		if !bytes.Equal(body, s.Body) {
			h.errf("cluster-restart: replay %d: bytes differ from the pre-restart reply", i)
			bad++
		}
	}
	m1 := h.clusterMetrics(nodes, "cluster-restart")
	if m1 == nil {
		return
	}
	solves := sumDelta(m0, m1, "solves")

	// Absolute counters on the restarted node: its boot prewarm must have
	// found the named circuits already on disk (disk_hits counts the loads,
	// prewarm_skipped the entries it therefore did not re-solve).
	var ri = -1
	for i, n := range nodes {
		if strings.TrimRight(n, "/") == strings.TrimRight(restarted, "/") {
			ri = i
		}
	}
	var diskHits, prewarmSkipped int64 = -1, -1
	if ri >= 0 {
		diskHits, prewarmSkipped = m1[ri]["disk_hits"], m1[ri]["prewarm_skipped"]
	} else if m := h.metricsAt(restarted, "cluster-restart"); m != nil {
		diskHits, prewarmSkipped = m["disk_hits"], m["prewarm_skipped"]
	}
	fmt.Printf("cluster-restart: replayed %d bodies against the restarted node — %d new solves cluster-wide, restarted disk_hits=%d prewarm_skipped=%d\n",
		len(saved), solves, diskHits, prewarmSkipped)

	if check {
		if bad > 0 {
			h.errf("cluster-restart: %d failed or divergent replays", bad)
		}
		if solves != 0 {
			h.errf("cluster-restart: %d engine solves during replay, want 0 (warm tiers must carry the whole set)", solves)
		}
		if diskHits < 1 {
			h.errf("cluster-restart: restarted node disk_hits=%d, want ≥1 (disk store never served)", diskHits)
		}
		if prewarmSkipped < 1 {
			h.errf("cluster-restart: restarted node prewarm_skipped=%d, want ≥1 (prewarm re-solved a warm store)", prewarmSkipped)
		}
	}
}

// loadBodies reads the canonical bodies the mix phase saved.
func (h *harness) loadBodies(path, phase string) []clusterBody {
	if path == "" {
		h.errf("%s: -cluster-bodies is required", phase)
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		h.errf("%s: %v", phase, err)
		return nil
	}
	var saved []clusterBody
	if err := json.Unmarshal(data, &saved); err != nil {
		h.errf("%s: decoding %s: %v", phase, path, err)
		return nil
	}
	if len(saved) == 0 {
		h.errf("%s: %s holds no bodies", phase, path)
	}
	return saved
}

// replayBodies posts every saved body to every node once, counting replies
// that are not 200 or differ from the saved bytes.
func (h *harness) replayBodies(nodes []string, saved []clusterBody, phase string) (bad, fiveXX, posted int) {
	for _, node := range nodes {
		for i, s := range saved {
			status, _, body, err := h.postTo(node, s.Req)
			posted++
			if err != nil || status != 200 {
				h.errf("%s: replay %d via %s: status %d err %v", phase, i, node, status, err)
				bad++
				if status >= 500 {
					fiveXX++
				}
				continue
			}
			if !bytes.Equal(body, s.Body) {
				h.errf("%s: replay %d via %s: bytes differ from the pre-kill reply", phase, i, node)
				bad++
			}
		}
	}
	return bad, fiveXX, posted
}

// runClusterReplay is byte-identity traffic with no solve accounting: the
// background load `ci.sh cluster` keeps flowing while a node joins. A
// replayed request may race the handoff and re-solve on the joiner — legal
// (≤ R solves per hash over the run) — so only availability and bytes are
// gated here.
func runClusterReplay(h *harness, nodes []string, bodiesPath string, check bool) {
	saved := h.loadBodies(bodiesPath, "cluster-replay")
	if len(saved) == 0 {
		return
	}
	bad, fiveXX, posted := h.replayBodies(nodes, saved, "cluster-replay")
	fmt.Printf("cluster-replay: %d posts (%d bodies x %d nodes) — %d failed, %d 5xx\n",
		posted, len(saved), len(nodes), bad, fiveXX)
	if check && bad > 0 {
		h.errf("cluster-replay: %d failed or divergent posts", bad)
	}
}

// runClusterKill is the zero-loss gate after a node death: every body the
// cluster ever served must still come back 200 and byte-identical from the
// survivors, with zero new engine solves anywhere (the dead owner's share
// is served from its replicas, not recomputed) and zero 5xx.
func runClusterKill(h *harness, nodes []string, bodiesPath string, check bool) {
	saved := h.loadBodies(bodiesPath, "cluster-kill")
	if len(saved) == 0 {
		return
	}
	m0 := h.clusterMetrics(nodes, "cluster-kill")
	if m0 == nil {
		return
	}
	bad, fiveXX, posted := h.replayBodies(nodes, saved, "cluster-kill")
	m1 := h.clusterMetrics(nodes, "cluster-kill")
	if m1 == nil {
		return
	}
	solves := sumDelta(m0, m1, "solves")
	fmt.Printf("cluster-kill: %d replays across %d survivors — %d new solves, %d failed, %d 5xx\n",
		posted, len(nodes), solves, bad, fiveXX)
	if check {
		if bad > 0 {
			h.errf("cluster-kill: %d failed or divergent replays with a node dead", bad)
		}
		if fiveXX > 0 {
			h.errf("cluster-kill: %d 5xx — a node death surfaced as an error", fiveXX)
		}
		if solves != 0 {
			h.errf("cluster-kill: %d engine re-solves, want 0 (cached bytes were lost with the node)", solves)
		}
	}
}

// runClusterJoin gates what a joined node took over. The harness knows the
// whole key universe it created (the prewarm set plus the saved mix
// bodies), so it recomputes the joiner's consistent-hash share with the
// same ring the servers build — over the full membership including the
// joiner — and compares it against the joiner's handoff counters: the
// joiner must have received its share and nothing else, rejecting no
// record, and the moved-key count must respect the rebalance bound pinned
// in shard_test.go (an owner set changes only by inserting the joiner).
func runClusterJoin(h *harness, nodes []string, joined, bodiesPath string, replication int, check bool) {
	if joined == "" {
		h.errf("cluster-join: -cluster-joined is required")
		return
	}
	saved := h.loadBodies(bodiesPath, "cluster-join")
	if len(saved) == 0 {
		return
	}
	all := append(append([]string(nil), nodes...), joined)

	// Membership convergence: every node, old and new, must report the
	// grown cluster before ownership is checked.
	deadline := time.Now().Add(30 * time.Second)
	for {
		m := h.clusterMetrics(all, "cluster-join")
		if m == nil {
			return
		}
		converged := true
		for i := range m {
			if m[i]["member_nodes"] != int64(len(all)) {
				converged = false
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			h.errf("cluster-join: membership did not converge on %d nodes within 30s", len(all))
			return
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The key universe this run created, and the joiner's share of it under
	// the post-join ring.
	universe := append([]string(nil), serve.PrewarmHashes()...)
	for _, s := range saved {
		hash, err := hashOfReq(s.Req)
		if err != nil {
			h.errf("cluster-join: hashing saved request: %v", err)
			return
		}
		universe = append(universe, hash)
	}
	seen := map[string]bool{}
	ringNodes := make([]string, 0, len(all))
	for _, n := range all {
		ringNodes = append(ringNodes, nodeAddr(n))
	}
	joinedAddr := nodeAddr(joined)
	before := serve.NewRing(ringNodes[:len(ringNodes)-1], 0)
	after := serve.NewRing(ringNodes, 0)
	share, changed := 0, 0
	for _, hash := range universe {
		if seen[hash] {
			continue
		}
		seen[hash] = true
		owners := after.Owners(hash, replication)
		hasJoiner := false
		for _, o := range owners {
			if o == joinedAddr {
				hasJoiner = true
			}
		}
		if hasJoiner {
			share++
		}
		old := before.Owners(hash, replication)
		same := len(old) == len(owners)
		for i := 0; same && i < len(owners); i++ {
			same = owners[i] == old[i]
		}
		if !same {
			changed++
			if !hasJoiner && check {
				h.errf("cluster-join: key %s changed owners without the joiner — unrelated churn", hash)
			}
		}
	}
	total := len(seen)

	jm := h.metricsAt(joined, "cluster-join")
	if jm == nil {
		return
	}
	senders := h.clusterMetrics(nodes, "cluster-join")
	if senders == nil {
		return
	}
	received := jm["handoff_keys_received"]
	joinerSolves := jm["solves"]
	streams, sentKeys, sentBytes := sumAbs(senders, "handoff_pulls"), sumAbs(senders, "handoff_keys_sent"), sumAbs(senders, "handoff_bytes")
	fmt.Printf("cluster-join: %d stored keys, joiner share %d (owner sets changed %d) — received %d via handoff (%d streams, %d records, %d bytes sent), %d mid-traffic solves, %d rejected\n",
		total, share, changed, received, streams, sentKeys, sentBytes, joinerSolves, jm["handoff_rejected"])

	if check {
		if received < 1 {
			h.errf("cluster-join: joiner received no handoff keys")
		}
		if streams < 1 {
			h.errf("cluster-join: no member served a handoff stream")
		}
		if sentKeys < received || sentBytes < 1 {
			h.errf("cluster-join: senders streamed %d records / %d bytes for %d received — the stream did not carry the share", sentKeys, sentBytes, received)
		}
		if jm["handoff_rejected"] != 0 {
			h.errf("cluster-join: joiner rejected %d handoff records", jm["handoff_rejected"])
		}
		// Only its share: every received key is one the new ring owes it,
		// and everything owed arrived — by stream, or (if a mid-traffic
		// request raced the handoff) by the ≤ R-bounded local solve.
		if received > int64(share) {
			h.errf("cluster-join: joiner received %d keys for a %d-key share — it took keys it does not own", received, share)
		}
		if received+joinerSolves < int64(share) {
			h.errf("cluster-join: joiner holds %d of its %d-key share (received %d + solved %d) — handoff lost keys", received+joinerSolves, share, received, joinerSolves)
		}
		// The rebalance bound from shard_test.go: a join may move at most
		// ~2x the joiner's fair share of owner slots, never the whole map.
		fair := float64(replication) / float64(len(all))
		if frac := float64(changed) / float64(total); frac > 2*fair && changed > replication {
			h.errf("cluster-join: join moved %.0f%% of owner sets (fair share %.0f%%) — rebalance bound broken", 100*frac, 100*fair)
		}
		if changed >= total {
			h.errf("cluster-join: every owner set changed — consistent hashing is rehashing everything")
		}
		for i, m := range h.clusterMetrics(all, "cluster-join") {
			if m["member_epoch"] < 2 {
				h.errf("cluster-join: node %d member_epoch = %d, want ≥ 2 after a join", i, m["member_epoch"])
			}
		}
	}
}

// runClusterBreaker exercises failure detection: fresh requests whose
// primary owner is the dead node, posted through one survivor. Every reply
// must be a 200 (the replica owner solves; nothing errors) while the dead
// peer's circuit breaker opens, short-circuits later attempts, and the
// jittered-backoff retry paths fire — on forwards while the breaker
// counted down, and on the write-through replication the solver still owes
// the dead owner. The exact counter choreography is pinned by the in-process
// suite (breaker_test.go, forward_test.go); this phase proves the same
// machinery fires over real sockets.
func runClusterBreaker(h *harness, nodes []string, ring []string, dead string, distinct int, check bool) {
	if dead == "" || len(ring) == 0 {
		h.errf("cluster-breaker: -cluster-ring and -cluster-dead are required")
		return
	}
	r := serve.NewRing(ring, 0)
	var reqs []string
	for i := 0; len(reqs) < distinct && i < 4096; i++ {
		req := sweepRequest(7.0+0.05*float64(i), 2e-6, 1e-8)
		hash, err := hashOfReq(req)
		if err != nil {
			h.errf("cluster-breaker: %v", err)
			return
		}
		if r.Owner(hash) == dead {
			reqs = append(reqs, req)
		}
	}
	if len(reqs) < distinct {
		h.errf("cluster-breaker: found %d/%d requests owned by %s in 4096 candidates", len(reqs), distinct, dead)
		return
	}

	entry := nodes[0]
	bad, fiveXX := 0, 0
	for i, req := range reqs {
		status, _, _, err := h.postTo(entry, req)
		if err != nil || status != 200 {
			h.errf("cluster-breaker: post %d: status %d err %v", i, status, err)
			bad++
		}
		if status >= 500 {
			fiveXX++
		}
	}
	// Drain the write-through first: the replicas owed to the dead owner
	// are what deterministically exercises the backoff schedule.
	m := h.waitReplDrained(nodes, "cluster-breaker", 30*time.Second)
	if m == nil {
		return
	}
	opens := sumAbs(m, "breaker_opens")
	shorts := sumAbs(m, "breaker_short_circuits")
	retries := sumAbs(m, "forward_retries") + sumAbs(m, "repl_retries")
	fmt.Printf("cluster-breaker: %d dead-owner posts via %s — %d failed, %d 5xx; breaker opens=%d short_circuits=%d, backoff retries=%d (forward+repl)\n",
		len(reqs), entry, bad, fiveXX, opens, shorts, retries)

	if check {
		if bad > 0 {
			h.errf("cluster-breaker: %d dead-owner requests failed, want all served by replicas", bad)
		}
		if fiveXX > 0 {
			h.errf("cluster-breaker: %d 5xx — a dead owner surfaced as an error", fiveXX)
		}
		if opens < 1 {
			h.errf("cluster-breaker: breaker_opens = %d, want ≥ 1 (the dead peer was never detected)", opens)
		}
		if shorts < 1 {
			h.errf("cluster-breaker: breaker_short_circuits = %d, want ≥ 1 (an open breaker never short-circuited)", shorts)
		}
		if retries < 1 {
			h.errf("cluster-breaker: retries = %d, want ≥ 1 — the backoff path never ran", retries)
		}
	}
}

// runClusterDown drives fresh load with one owner dead: -cluster lists only
// the survivors. Requests whose hash the dead node owns must degrade to
// local solves (forward fallback), never to errors.
func runClusterDown(h *harness, nodes []string, distinct int, check bool) {
	m0 := h.clusterMetrics(nodes, "cluster-down")
	if m0 == nil {
		return
	}
	bad, fiveXX, posted := 0, 0, 0
	var fallbacks int64
	// A fresh voltage family per attempt; with ~1/3 of hash space owned by
	// the dead node one family all but guarantees a fallback, the retry
	// covers the astronomically unlucky draw.
	for attempt := 0; attempt < 3; attempt++ {
		for i := 0; i < distinct; i++ {
			req := sweepRequest(5.0+0.05*float64(attempt*distinct+i), 2e-6, 1e-8)
			status, _, _, err := h.postTo(nodes[i%len(nodes)], req)
			posted++
			if err != nil || status != 200 {
				h.errf("cluster-down: req %d: status %d err %v", attempt*distinct+i, status, err)
				bad++
			}
			if status >= 500 {
				fiveXX++
			}
		}
		m1 := h.clusterMetrics(nodes, "cluster-down")
		if m1 == nil {
			return
		}
		if fallbacks = sumDelta(m0, m1, "forward_fallbacks"); fallbacks >= 1 {
			break
		}
	}
	fmt.Printf("cluster-down: %d fresh requests against %d survivors — %d forward fallbacks, %d 5xx\n",
		posted, len(nodes), fallbacks, fiveXX)

	if check {
		if bad > 0 {
			h.errf("cluster-down: %d failed posts with a node down", bad)
		}
		if fiveXX > 0 {
			h.errf("cluster-down: %d 5xx responses — degradation must not surface errors", fiveXX)
		}
		if fallbacks < 1 {
			h.errf("cluster-down: no forward fallbacks recorded — the dead owner's share was never exercised")
		}
	}
}

// clusterOpts bundles the -cluster-* flags for one phase run.
type clusterOpts struct {
	phase       string
	nodeList    string // live nodes the phase posts to / reads metrics from
	bodiesPath  string
	restarted   string // restart phase: base URL of the restarted node
	joined      string // join phase: base URL of the node that joined
	ring        string // breaker phase: full membership addrs, dead included
	dead        string // breaker phase: the dead owner's addr
	replication int
	distinct    int
	seed        int64
	check       bool
}

func splitList(list string) []string {
	var out []string
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// runClusterPhase dispatches -cluster-phase.
func runClusterPhase(h *harness, o clusterOpts) {
	nodes := splitList(o.nodeList)
	if len(nodes) == 0 {
		h.errf("cluster: -cluster lists no nodes")
		return
	}
	switch o.phase {
	case "mix":
		runClusterMix(h, nodes, o.bodiesPath, o.distinct, o.seed, o.replication, o.check)
	case "restart":
		runClusterRestart(h, nodes, o.restarted, o.bodiesPath, o.check)
	case "replay":
		runClusterReplay(h, nodes, o.bodiesPath, o.check)
	case "kill":
		runClusterKill(h, nodes, o.bodiesPath, o.check)
	case "join":
		runClusterJoin(h, nodes, o.joined, o.bodiesPath, o.replication, o.check)
	case "breaker":
		runClusterBreaker(h, nodes, splitList(o.ring), o.dead, o.distinct, o.check)
	case "down":
		runClusterDown(h, nodes, o.distinct, o.check)
	default:
		h.errf("cluster: unknown -cluster-phase %q (want mix, restart, replay, kill, join, breaker, or down)", o.phase)
	}
}
