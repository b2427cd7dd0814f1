// Command wampde-load is a deterministic closed-loop load generator for
// wampde-server. It drives three phases against a running server:
//
//  1. mix: a seeded shuffle of -requests requests drawn from -distinct
//     canonical solves (a VCO tuning-voltage sweep), issued closed-loop by
//     -concurrency workers. The phase measures throughput and latency
//     percentiles, verifies that responses for the same canonical request
//     are bitwise identical, and reports the cache/single-flight hit rate.
//  2. deadline: one deliberately over-budget request with a small
//     deadline_ms, which must come back 408 with the partial result.
//  3. burst: a simultaneous volley of distinct requests sized to overrun
//     the server's admission queue, which must produce 429 rejections.
//
// -sweep adds the batch-endpoint phases against /v1/sweep:
//
//  4. sweep-dedup: single solves and sweep points must dedup through the
//     same content-addressed cache in both directions, byte-for-byte.
//  5. sweep-amortization: a -sweep-points vctl grid sweep must cost at most
//     half the wall-clock of the same number of independent cold single
//     solves (estimated from a sequential cold sample).
//  6. sweep-resume: a sweep killed mid-stream and resumed with the received
//     line count must emit exactly the missing points, re-solving at most
//     one (the point in flight at the kill).
//
// -cluster switches to the cluster phases (see cluster.go): -cluster lists
// every live node's base URL and -cluster-phase picks mix (healthy-cluster
// byte-identity + global dedup + replication write-through), restart (warm
// disk-store replay against a restarted node), replay (byte-identity
// traffic with no solve gate — the mid-join background load), kill
// (zero-loss replay after a node death: byte-identical replicas, zero
// re-solves, zero 5xx), join (a joined node received exactly its
// consistent-hash share via handoff), breaker (a dead owner's circuit
// breaker opens, short-circuits, and the jittered-backoff retry paths
// fire), or down (legacy single-owner degradation). -wait-ready URL just
// polls /healthz for readiness and exits — the curl stand-in `ci.sh
// cluster` uses to sequence node boots.
//
// -check enforces the acceptance gates (hit rate ≥ 87%, zero 5xx in the
// mix, ≥1 rejection, ≥1 deadline exercised, and the sweep gates above);
// without it the phases only report what they measured. Every gate is a
// within-run count or ratio, so it needs no stored baseline:
//
//	wampde-load -url http://127.0.0.1:8080 -check
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type result struct {
	req     int // index into the distinct request set
	status  int
	xcache  string
	body    []byte
	latency time.Duration
}

type harness struct {
	url    string
	client *http.Client
	fail   int
}

func (h *harness) errf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wampde-load: "+format+"\n", args...)
	h.fail++
}

func (h *harness) post(body string) (status int, xcache string, data []byte, err error) {
	resp, err := h.client.Post(h.url+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), data, err
}

// sweepRequest is one point of the VCO tuning sweep: a short transient of
// the paper VCO with the control frozen at vctl. Distinct voltages are
// distinct canonical solves; equal voltages coalesce and cache.
func sweepRequest(vctl float64, tstop, h float64) string {
	return fmt.Sprintf(`{"circuit":"paper-vco","vctl_dc":%.4f,"analysis":"transient","options":{"tstop":%g,"h":%g}}`,
		vctl, tstop, h)
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func main() {
	url := flag.String("url", "", "server base URL (required), e.g. http://127.0.0.1:8080")
	requests := flag.Int("requests", 64, "total requests in the mix phase (0 skips)")
	distinct := flag.Int("distinct", 8, "distinct canonical solves in the mix")
	concurrency := flag.Int("concurrency", 8, "closed-loop workers")
	seed := flag.Int64("seed", 1, "shuffle seed (the mix is deterministic given the seed)")
	burst := flag.Int("burst", 16, "simultaneous distinct requests in the burst phase (0 skips)")
	deadlineMS := flag.Int("deadline-ms", 100, "deadline of the over-budget request (0 skips the phase)")
	sweepPhases := flag.Bool("sweep", false, "run the /v1/sweep phases (dedup, amortization, resume)")
	sweepPoints := flag.Int("sweep-points", 200, "grid points in the sweep amortization phase")
	sweepGate := flag.Float64("sweep-gate", 0.5, "amortization gate: sweep per-point wall ≤ gate × a cold single (0 reports only; race-instrumented servers serialize the lanes, so gate against a plain build)")
	check := flag.Bool("check", false, "enforce the acceptance gates; non-zero exit on violation")
	cluster := flag.String("cluster", "", "comma-separated base URLs of the live cluster nodes; runs the cluster phases instead of the single-node ones")
	clusterPhase := flag.String("cluster-phase", "mix", "cluster phase: mix, restart, replay, kill, join, breaker, or down")
	clusterBodies := flag.String("cluster-bodies", "", "file the mix phase saves canonical bodies to and the replay phases load from")
	clusterRestarted := flag.String("cluster-restarted", "", "base URL of the restarted node (restart phase)")
	clusterJoined := flag.String("cluster-joined", "", "base URL of the node that joined mid-traffic (join phase)")
	clusterRing := flag.String("cluster-ring", "", "comma-separated host:port of the full membership, dead nodes included (breaker phase)")
	clusterDead := flag.String("cluster-dead", "", "host:port of the dead owner whose breaker the phase exercises (breaker phase)")
	clusterReplication := flag.Int("cluster-replication", 2, "owners per hash R the cluster runs with (replication and join gates)")
	waitReadyURL := flag.String("wait-ready", "", "poll this base URL's /healthz until ready, then exit (no other phases run)")
	flag.Parse()

	if *waitReadyURL != "" {
		if err := waitReady(*waitReadyURL, time.Minute); err != nil {
			fmt.Fprintln(os.Stderr, "wampde-load:", err)
			os.Exit(1)
		}
		fmt.Println("ready")
		return
	}
	if *cluster != "" {
		h := &harness{client: &http.Client{Timeout: 5 * time.Minute}}
		runClusterPhase(h, clusterOpts{
			phase:       *clusterPhase,
			nodeList:    *cluster,
			bodiesPath:  *clusterBodies,
			restarted:   *clusterRestarted,
			joined:      *clusterJoined,
			ring:        *clusterRing,
			dead:        *clusterDead,
			replication: *clusterReplication,
			distinct:    *distinct,
			seed:        *seed,
			check:       *check,
		})
		if h.fail > 0 {
			os.Exit(1)
		}
		fmt.Println("ok")
		return
	}
	if *url == "" {
		fmt.Fprintln(os.Stderr, "wampde-load: -url is required")
		os.Exit(2)
	}
	h := &harness{url: strings.TrimRight(*url, "/"), client: &http.Client{Timeout: 5 * time.Minute}}

	// ---- Phase 1: seeded closed-loop mix over the tuning sweep.
	var (
		hits, misses, fiveXX, errs int
		hitRate                    float64
	)
	if *requests > 0 {
		reqs := make([]string, *distinct)
		for i := range reqs {
			reqs[i] = sweepRequest(1.5+0.05*float64(i), 2e-6, 1e-8)
		}
		order := make([]int, *requests)
		for i := range order {
			order[i] = i % *distinct
		}
		rand.New(rand.NewSource(*seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		results := make([]result, len(order))
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(order) {
						return
					}
					t0 := time.Now()
					status, xcache, body, err := h.post(reqs[order[i]])
					if err != nil {
						status = -1
					}
					results[i] = result{req: order[i], status: status, xcache: xcache, body: body, latency: time.Since(t0)}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)

		first := make(map[int][]byte)
		lat := make([]time.Duration, 0, len(results))
		for _, r := range results {
			lat = append(lat, r.latency)
			switch {
			case r.status == 200:
				if r.xcache == "hit" || r.xcache == "coalesced" {
					hits++
				} else {
					misses++
				}
				if prev, ok := first[r.req]; !ok {
					first[r.req] = r.body
				} else if !bytes.Equal(prev, r.body) {
					h.errf("request %d: response bytes differ between fresh and cached/coalesced replies", r.req)
				}
			case r.status >= 500:
				fiveXX++
			case r.status < 0:
				errs++
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		hitRate = float64(hits) / float64(len(results))
		fmt.Printf("mix: %d requests (%d distinct, concurrency %d, seed %d) in %v\n",
			len(results), *distinct, *concurrency, *seed, elapsed.Round(time.Millisecond))
		fmt.Printf("mix: throughput %.1f req/s, hit rate %.1f%% (%d hit/coalesced, %d solved), %d 5xx, %d transport errors\n",
			float64(len(results))/elapsed.Seconds(), 100*hitRate, hits, misses, fiveXX, errs)
		fmt.Printf("mix: latency p50 %v  p90 %v  p99 %v  max %v\n",
			percentile(lat, 0.50).Round(time.Microsecond), percentile(lat, 0.90).Round(time.Microsecond),
			percentile(lat, 0.99).Round(time.Microsecond), lat[len(lat)-1].Round(time.Microsecond))
	}

	// ---- Phase 2: one over-budget request must die at its deadline with a
	// partial result.
	deadlines := 0
	if *deadlineMS > 0 {
		req := fmt.Sprintf(`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":5e-3,"h":1e-8},"deadline_ms":%d}`, *deadlineMS)
		status, _, body, err := h.post(req)
		if err != nil {
			h.errf("deadline request: %v", err)
		} else if status != 408 {
			h.errf("deadline request: status %d, want 408 (%.200s)", status, body)
		} else {
			deadlines++
			fmt.Printf("deadline: 408 after %dms budget, partial=%v\n", *deadlineMS, bytes.Contains(body, []byte(`"partial":true`)))
		}
	}

	// ---- Phase 3: a simultaneous burst of distinct solves must overrun the
	// admission queue. Retried a few times because an unloaded fast server
	// can drain between arrivals.
	rejected := 0
	if *burst > 0 {
		for attempt := 0; attempt < 3 && rejected == 0; attempt++ {
			var bwg sync.WaitGroup
			var rej, b5xx atomic.Int64
			release := make(chan struct{})
			for i := 0; i < *burst; i++ {
				// Distinct from the mix sweep (different tstop) and from each
				// other; a new voltage family per attempt defeats the cache.
				// The longer span (~10ms of solve) is what actually occupies
				// the workers long enough for the volley to overrun the queue
				// — at the mix phase's ~1ms solves the queue drains between
				// arrivals and nothing is rejected.
				req := sweepRequest(3.0+0.05*float64(attempt**burst+i), 2e-4, 1e-8)
				bwg.Add(1)
				go func() {
					defer bwg.Done()
					<-release
					status, _, _, err := h.post(req)
					if err != nil {
						return
					}
					if status == 429 {
						rej.Add(1)
					} else if status >= 500 {
						b5xx.Add(1)
					}
				}()
			}
			close(release)
			bwg.Wait()
			rejected = int(rej.Load())
			fiveXX += int(b5xx.Load())
			fmt.Printf("burst: %d simultaneous distinct requests, %d rejected with 429 (attempt %d)\n",
				*burst, rejected, attempt+1)
		}
	}

	// ---- Phases 4–6: the /v1/sweep batch endpoint.
	if *sweepPhases {
		runSweepPhases(h, *sweepPoints, *sweepGate, *check)
	}

	if *check {
		if *requests > 0 {
			if hitRate < 0.87 {
				h.errf("check: hit rate %.1f%% < 87%%", 100*hitRate)
			}
			if errs > 0 {
				h.errf("check: %d transport errors", errs)
			}
		}
		if fiveXX > 0 {
			h.errf("check: %d non-injected 5xx responses", fiveXX)
		}
		if *burst > 0 && rejected == 0 {
			h.errf("check: burst produced no 429 admission rejections")
		}
		if *deadlineMS > 0 && deadlines == 0 {
			h.errf("check: no per-job deadline was exercised")
		}
	}
	if h.fail > 0 {
		os.Exit(1)
	}
	fmt.Println("ok")
}
