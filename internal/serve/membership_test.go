package serve

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestMembershipMergeSemilattice pins the convergence rule: higher epoch
// wins outright, equal epochs union node sets, lower epochs change nothing
// — and the merge is idempotent, so repeated exchanges are harmless.
func TestMembershipMergeSemilattice(t *testing.T) {
	mb := newMembership("a:1", []string{"b:1"}, 0, NewMetrics())
	if v := mb.view(); v.Epoch != 1 || len(v.Nodes) != 2 {
		t.Fatalf("boot view = %+v, want epoch 1 with 2 nodes", v)
	}

	// Lower epoch: ignored, the reply teaches the sender.
	got, changed := mb.merge(MemberView{Epoch: 0, Nodes: []string{"z:1"}})
	if changed || got.Epoch != 1 || len(got.Nodes) != 2 {
		t.Fatalf("lower-epoch merge changed the view: %+v (changed=%v)", got, changed)
	}

	// Equal epoch: union.
	got, changed = mb.merge(MemberView{Epoch: 1, Nodes: []string{"b:1", "c:1"}})
	if !changed || len(got.Nodes) != 3 {
		t.Fatalf("equal-epoch union = %+v (changed=%v), want 3 nodes", got, changed)
	}
	// Idempotent: the same view again changes nothing.
	if _, changed = mb.merge(MemberView{Epoch: 1, Nodes: []string{"b:1", "c:1"}}); changed {
		t.Fatal("re-merging an absorbed view reported a change")
	}

	// Higher epoch: wins outright, but self is always retained.
	got, changed = mb.merge(MemberView{Epoch: 5, Nodes: []string{"d:1"}})
	if !changed || got.Epoch != 5 {
		t.Fatalf("higher-epoch merge = %+v (changed=%v)", got, changed)
	}
	hasSelf := false
	for _, n := range got.Nodes {
		if n == "a:1" {
			hasSelf = true
		}
	}
	if !hasSelf {
		t.Fatalf("merge dropped self from the view: %+v", got)
	}

	// Two memberships exchanging views in either order converge identically.
	x := newMembership("x:1", []string{"p:1"}, 0, NewMetrics())
	y := newMembership("y:1", []string{"q:1"}, 0, NewMetrics())
	vx, vy := x.view(), y.view()
	x.merge(vy)
	y.merge(vx)
	x.merge(y.view())
	y.merge(x.view())
	gx, gy := x.view(), y.view()
	if gx.Epoch != gy.Epoch || strings.Join(gx.Nodes, ",") != strings.Join(gy.Nodes, ",") {
		t.Fatalf("exchange did not converge: %+v vs %+v", gx, gy)
	}
}

// TestMembershipAddNode: admitting a new node bumps the epoch once;
// re-admitting it is idempotent.
func TestMembershipAddNode(t *testing.T) {
	m := NewMetrics()
	mb := newMembership("a:1", []string{"b:1"}, 0, m)
	v, changed := mb.addNode("c:1")
	if !changed || v.Epoch != 2 || len(v.Nodes) != 3 {
		t.Fatalf("addNode = %+v (changed=%v), want epoch 2 with 3 nodes", v, changed)
	}
	v2, changed := mb.addNode("c:1")
	if changed || v2.Epoch != 2 {
		t.Fatalf("idempotent re-add = %+v (changed=%v)", v2, changed)
	}
	if got := m.MemberJoins.Load(); got != 1 {
		t.Fatalf("MemberJoins = %d, want 1", got)
	}
	if !mb.ring.Load().Contains("c:1") {
		t.Fatal("admitted node missing from the rebuilt ring")
	}
}

// TestDecodeMemberViewRejects: every malformed wire view is rejected whole
// — reject-before-apply means a decoder error can never half-update state.
func TestDecodeMemberViewRejects(t *testing.T) {
	cases := []struct{ name, body string }{
		{"garbage", "not json"},
		{"empty nodes", `{"epoch":1,"nodes":[]}`},
		{"no nodes", `{"epoch":1}`},
		{"duplicate", `{"epoch":1,"nodes":["a:1","a:1"]}`},
		{"no port", `{"epoch":1,"nodes":["justahost"]}`},
		{"control char", `{"epoch":1,"nodes":["ab:1"]}`},
		{"space", `{"epoch":1,"nodes":["a b:1"]}`},
		{"oversized addr", `{"epoch":1,"nodes":["` + strings.Repeat("a", 300) + `:1"]}`},
	}
	for _, c := range cases {
		if _, err := DecodeMemberView(strings.NewReader(c.body)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Too many nodes.
	var sb strings.Builder
	sb.WriteString(`{"epoch":1,"nodes":[`)
	for i := 0; i <= memberViewMaxNodes; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `"n%03d:1"`, i)
	}
	sb.WriteString(`]}`)
	if _, err := DecodeMemberView(strings.NewReader(sb.String())); err == nil {
		t.Error("oversized node list accepted")
	}
	// A good view decodes sorted.
	v, err := DecodeMemberView(strings.NewReader(`{"epoch":7,"nodes":["b:1","a:1"]}`))
	if err != nil {
		t.Fatalf("valid view rejected: %v", err)
	}
	if v.Epoch != 7 || v.Nodes[0] != "a:1" || v.Nodes[1] != "b:1" {
		t.Fatalf("decoded view = %+v, want sorted nodes", v)
	}
}

// TestParsePeerList: literal addresses, @file references, stray commas, and
// the all-or-nothing rejection rule.
func TestParsePeerList(t *testing.T) {
	got, err := ParsePeerList("a:1, b:2 ,,@/run/peers/c.addr,")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := []PeerSource{{Addr: "a:1"}, {Addr: "b:2"}, {File: "/run/peers/c.addr"}}
	if len(got) != len(want) {
		t.Fatalf("parsed %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got, err := ParsePeerList(""); err != nil || got != nil {
		t.Fatalf("empty spec: %v entries, err %v", got, err)
	}
	bad := []string{
		"a:1,noport",                          // bad literal poisons the whole list
		"@",                                   // file entry with no path
		"a:1,@bad\x01path",                    // control char in the path
		"a b:1",                               // space inside an address
		strings.Repeat("a:1,", 20000) + "b:1", // over the spec length cap
	}
	for _, spec := range bad {
		if _, err := ParsePeerList(spec); err == nil {
			t.Errorf("spec %.40q accepted", spec)
		}
	}
}

// FuzzMemberView: arbitrary bytes through the view decoder must never panic,
// and anything accepted must satisfy every documented bound.
func FuzzMemberView(f *testing.F) {
	f.Add([]byte(`{"epoch":1,"nodes":["a:1"]}`))
	f.Add([]byte(`{"epoch":0,"nodes":[]}`))
	f.Add([]byte(`{"nodes":["a:1","a:1"]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte{0xFF, 0xFE})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeMemberView(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		if len(v.Nodes) == 0 || len(v.Nodes) > memberViewMaxNodes {
			t.Fatalf("accepted view with %d nodes", len(v.Nodes))
		}
		for i, n := range v.Nodes {
			if validateNodeAddr(n) != nil {
				t.Fatalf("accepted invalid node %q", n)
			}
			if i > 0 && v.Nodes[i-1] >= n {
				t.Fatalf("accepted unsorted or duplicate nodes %q >= %q", v.Nodes[i-1], n)
			}
		}
		// Accepted views must merge without panicking.
		newMembership("self:1", nil, 0, NewMetrics()).merge(v)
	})
}

// FuzzPeerSpec: arbitrary -peers strings must never panic, and every
// accepted entry is either a valid literal address or a file reference.
func FuzzPeerSpec(f *testing.F) {
	f.Add("a:1,b:2")
	f.Add("@/etc/peers,@x")
	f.Add(",,,")
	f.Add("a:1,@")
	f.Add("\x00")
	f.Fuzz(func(t *testing.T, spec string) {
		entries, err := ParsePeerList(spec)
		if err != nil {
			return
		}
		for _, e := range entries {
			switch {
			case e.File != "":
				if e.Addr != "" {
					t.Fatalf("entry has both Addr %q and File %q", e.Addr, e.File)
				}
			case validateNodeAddr(e.Addr) != nil:
				t.Fatalf("accepted invalid literal %q", e.Addr)
			}
		}
	})
}

// TestClusterJoinHandoff is the dynamic-membership tentpole: a node joining
// mid-life receives exactly its consistent-hash share via segment-streamed
// handoff — no recomputing, no over-copying — and the membership change
// propagates to every node via heartbeat.
func TestClusterJoinHandoff(t *testing.T) {
	hb := 20 * time.Millisecond
	tc := newTestCluster(t, 3, func(i int) Config {
		cc := fastBackoffCluster()
		cc.HeartbeatInterval = hb
		return Config{Workers: 2, QueueCap: 8, Engine: &fakeEngine{}, StoreDir: t.TempDir(), Cluster: cc}
	})
	// Bind the joiner's listener first, so the seeded keys can be chosen
	// against the final four-node ring.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	joinAddr := ln.Addr().String()
	final := NewRing(append(append([]string(nil), tc.addrs...), joinAddr), 0)
	joinerOwns := func(h string) bool { return slices.Contains(final.Owners(h, 2), joinAddr) }

	// Populate the cluster: a family of distinct hashes, solved wherever
	// their primaries live, replicated to their secondaries. The final ring
	// must split them, so the joiner's share is strict and non-empty: when
	// the first keys-1 all fall on one side, the last one is taken from the
	// other.
	const keys = 12
	var hashes []string
	owned := 0
	for i := 0; len(hashes) < keys; i++ {
		req := distinctReq(i)
		h := hashOf(t, req)
		mine := joinerOwns(h)
		if len(hashes) == keys-1 && (owned == 0 && !mine || owned == keys-1 && mine) {
			continue
		}
		if mine {
			owned++
		}
		hashes = append(hashes, h)
		if resp, body := post(t, "http://"+tc.addrs[0], req); resp.StatusCode != 200 {
			t.Fatalf("seed solve %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	tc.waitReplDrained(t)

	// Boot the joiner: seeds are node 0 only; everything else it must learn.
	cc := fastBackoffCluster()
	cc.HeartbeatInterval = hb
	cc.Join = true
	cc.Peers = []string{tc.addrs[0]}
	j := tc.addOn(t, ln, Config{Workers: 2, QueueCap: 8, Engine: &fakeEngine{}, StoreDir: t.TempDir(), Cluster: cc})
	joiner := tc.servers[j]
	waitFor(t, "join completion", func() bool { return joiner.joinDone.Load() })

	// The joiner's share, computed independently over the final membership.
	ring := NewRing(tc.addrs, 0)
	var share []string
	for _, h := range hashes {
		for _, o := range ring.Owners(h, 2) {
			if o == tc.addrs[j] {
				share = append(share, h)
				break
			}
		}
	}
	if len(share) == 0 {
		t.Fatal("joiner owns no keys — distribution is broken")
	}
	if len(share) == keys {
		t.Fatal("joiner owns every key — rebalance bound is broken")
	}
	if got := joiner.m.HandoffKeysReceived.Load(); got != int64(len(share)) {
		t.Fatalf("HandoffKeysReceived = %d, want exactly the share %d", got, len(share))
	}
	if got := joiner.m.HandoffRejected.Load(); got != 0 {
		t.Fatalf("HandoffRejected = %d, want 0", got)
	}
	// Every owed key is in the joiner's local tiers; nothing else is.
	for _, h := range share {
		if got := joiner.store.Get(h); got == nil {
			t.Fatalf("joiner missing its key %s", h[:8])
		}
	}
	if got := joiner.store.Len(); got != len(share) {
		t.Fatalf("joiner store holds %d records, want exactly its share %d", got, len(share))
	}
	if got := tc.engines[j].Solves(); got != 0 {
		t.Fatalf("joiner solved %d times during handoff, want 0", got)
	}

	// The join propagates: every node converges on the 4-node view.
	waitFor(t, "membership propagation", func() bool {
		for _, s := range tc.servers {
			if v := s.member.view(); len(v.Nodes) != 4 {
				return false
			}
		}
		return true
	})
	// And the senders' accounting concurs: the distinct moved keys equal
	// the share (replicated keys stream from two senders; the joiner skips
	// the duplicate, so sent >= received).
	var sent int64
	for i := 0; i < 3; i++ {
		sent += tc.servers[i].m.HandoffKeysSent.Load()
	}
	if sent < int64(len(share)) {
		t.Fatalf("senders streamed %d records for a %d-key share", sent, len(share))
	}
}

// TestClusterMultiJoinRace: two nodes join through *different* seeds inside
// the same heartbeat window. The membership views are a join-semilattice
// (merge = set union, epoch sup), so the racing admissions must converge to
// one five-node view on every node without coordination. Handoff share
// arithmetic under the race: a sender computes a joiner's share against its
// own view with the joiner unioned in, and consistent hashing only ever
// *shrinks* a node's share when another node is added — so a sender that has
// not yet heard of the other joiner streams a superset of the final-ring
// share, never a subset. Hence each joiner must end up holding every key of
// its final five-ring share (over-copy is tolerated, loss is not), with no
// rejected records and no recomputed solves.
func TestClusterMultiJoinRace(t *testing.T) {
	hb := 20 * time.Millisecond
	tc := newTestCluster(t, 3, func(i int) Config {
		cc := fastBackoffCluster()
		cc.HeartbeatInterval = hb
		return Config{Workers: 2, QueueCap: 8, Engine: &fakeEngine{}, StoreDir: t.TempDir(), Cluster: cc}
	})
	const keys = 16
	hashes := make([]string, keys)
	for i := 0; i < keys; i++ {
		req := distinctReq(i)
		hashes[i] = hashOf(t, req)
		if resp, body := post(t, "http://"+tc.addrs[0], req); resp.StatusCode != 200 {
			t.Fatalf("seed solve %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	tc.waitReplDrained(t)
	solvesBefore := tc.totalSolves()

	// Boot both joiners back-to-back — different seeds, no wait between
	// them, so their admissions and handoff pulls overlap.
	joinerCfg := func(seed string) Config {
		cc := fastBackoffCluster()
		cc.HeartbeatInterval = hb
		cc.Join = true
		cc.Peers = []string{seed}
		return Config{Workers: 2, QueueCap: 8, Engine: &fakeEngine{}, StoreDir: t.TempDir(), Cluster: cc}
	}
	ja := tc.add(t, joinerCfg(tc.addrs[0]))
	jb := tc.add(t, joinerCfg(tc.addrs[1]))
	waitFor(t, "both joins complete", func() bool {
		return tc.servers[ja].joinDone.Load() && tc.servers[jb].joinDone.Load()
	})

	// Semilattice convergence: every node — originals and both joiners —
	// reaches the same five-node view, even though the two admissions were
	// granted by different seeds concurrently.
	waitFor(t, "five-node view on every node", func() bool {
		for _, s := range tc.servers {
			if len(s.member.view().Nodes) != 5 {
				return false
			}
		}
		return true
	})

	// Share arithmetic over the final membership ring.
	ring := NewRing(tc.addrs, 0)
	shareOf := func(addr string) []string {
		var share []string
		for _, h := range hashes {
			for _, o := range ring.Owners(h, 2) {
				if o == addr {
					share = append(share, h)
					break
				}
			}
		}
		return share
	}
	shareA, shareB := shareOf(tc.addrs[ja]), shareOf(tc.addrs[jb])
	if len(shareA)+len(shareB) == 0 {
		t.Fatal("neither joiner owns any key — distribution is broken")
	}
	for _, j := range []struct {
		idx   int
		share []string
	}{{ja, shareA}, {jb, shareB}} {
		s := tc.servers[j.idx]
		// No loss: every owed key is in the local tiers.
		for _, h := range j.share {
			if s.store.Get(h) == nil {
				t.Fatalf("joiner %d missing its key %s", j.idx, h[:8])
			}
		}
		// Received at least the final share, never more than everything; a
		// racing sender may over-stream keys the *other* joiner finally owns,
		// but each record persists at most once.
		got := s.m.HandoffKeysReceived.Load()
		if got < int64(len(j.share)) || got > keys {
			t.Fatalf("joiner %d HandoffKeysReceived = %d, want in [%d, %d]",
				j.idx, got, len(j.share), keys)
		}
		if rej := s.m.HandoffRejected.Load(); rej != 0 {
			t.Fatalf("joiner %d HandoffRejected = %d, want 0", j.idx, rej)
		}
		if n := s.store.Len(); int64(n) != got {
			t.Fatalf("joiner %d store holds %d records but received %d", j.idx, n, got)
		}
	}
	// Handoff never recomputes: no joiner solved anything, and the cluster
	// total is unchanged from the seeding pass.
	if got := tc.engines[ja].Solves() + tc.engines[jb].Solves(); got != 0 {
		t.Fatalf("joiners solved %d times during handoff, want 0", got)
	}
	if got := tc.totalSolves(); got != solvesBefore {
		t.Fatalf("cluster solves went %d -> %d across the join race", solvesBefore, got)
	}
	// The grown cluster serves every seeded key from cache through either
	// joiner's front door (forwarded or local — but never re-solved).
	for _, i := range []int{ja, jb} {
		if resp, body := post(t, "http://"+tc.addrs[i], distinctReq(0)); resp.StatusCode != 200 {
			t.Fatalf("post-join serve via node %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	if got := tc.totalSolves(); got != solvesBefore {
		t.Fatalf("post-join reads re-solved: %d -> %d", solvesBefore, got)
	}
}

// TestFaultClusterPartition: injected heartbeat drops partition the
// membership exchange; misses are counted and the views stop converging.
// Healing the partition (disarm) lets the next rounds converge.
func TestFaultClusterPartition(t *testing.T) {
	disarm := faultinject.Arm(faultinject.NewPlan().
		Fail(faultinject.SiteHeartbeatDrop, faultinject.Always()))
	armed := true
	defer func() {
		if armed {
			disarm()
		}
	}()
	hb := 10 * time.Millisecond
	tc := newTestCluster(t, 2, func(i int) Config {
		cc := fastBackoffCluster()
		cc.HeartbeatInterval = hb
		return Config{Workers: 1, Engine: &fakeEngine{}, Cluster: cc}
	})
	a := tc.servers[0]
	// Under the partition every heartbeat misses.
	waitFor(t, "heartbeat misses under partition", func() bool {
		return a.m.MemberHeartbeatMisses.Load() >= 3
	})
	if got, want := a.m.MemberHeartbeatMisses.Load(), a.m.MemberHeartbeats.Load(); got < want-1 {
		t.Fatalf("misses %d but %d heartbeats attempted — some leaked through the partition", got, want)
	}
	// Heal: successful exchanges resume (attempts outpace misses again).
	disarm()
	armed = false
	okBefore := a.m.MemberHeartbeats.Load() - a.m.MemberHeartbeatMisses.Load()
	waitFor(t, "successful heartbeats after healing", func() bool {
		return a.m.MemberHeartbeats.Load()-a.m.MemberHeartbeatMisses.Load() >= okBefore+3
	})
}
