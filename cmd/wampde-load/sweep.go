package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// sweepNDLine is one NDJSON line of a /v1/sweep response, parsed at the wire
// level (the harness deliberately does not import internal/serve): exactly
// one of Sweep (header), Seq (point record), or Done (trailer) is set.
type sweepNDLine struct {
	Sweep *struct {
		Hash   string `json:"hash"`
		Param  string `json:"param"`
		Points int    `json:"points"`
		Lanes  int    `json:"lanes"`
		Have   int    `json:"have"`
	} `json:"sweep"`
	Done *struct {
		Points    int    `json:"points"`
		Emitted   int    `json:"emitted"`
		Solved    int    `json:"solved"`
		CacheHits int    `json:"cache_hits"`
		Coalesced int    `json:"coalesced"`
		Errors    int    `json:"errors"`
		Error     string `json:"error"`
	} `json:"done"`
	Seq    *int            `json:"seq"`
	Index  int             `json:"index"`
	VCtlDC float64         `json:"vctl_dc"`
	Hash   string          `json:"hash"`
	Cache  string          `json:"cache"`
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
	Error  json.RawMessage `json:"error"`
}

// sweepBody builds a /v1/sweep request over explicit vctl values, formatted
// with the same %.4f the single-solve builder uses so the canonical point
// requests — and therefore the content hashes — match exactly.
func sweepBody(values []float64, tstop, h float64, lanes int, extra string) string {
	var vs []string
	for _, v := range values {
		vs = append(vs, fmt.Sprintf("%.4f", v))
	}
	return fmt.Sprintf(`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":%g,"h":%g},"sweep":{"param":"vctl_dc","values":[%s]},"lanes":%d%s}`,
		tstop, h, strings.Join(vs, ","), lanes, extra)
}

func sweepGridBody(from, to float64, points int, tstop, h float64, lanes int) string {
	return fmt.Sprintf(`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":%g,"h":%g},"sweep":{"param":"vctl_dc","from":%.4f,"to":%.4f,"points":%d},"lanes":%d}`,
		tstop, h, from, to, points, lanes)
}

// postSweep runs a sweep to completion and splits the stream into header,
// point records, and trailer, failing the harness on any framing violation.
func (h *harness) postSweep(phase, body string) (recs []sweepNDLine, trailer *sweepNDLine, elapsed time.Duration, ok bool) {
	t0 := time.Now()
	resp, err := h.client.Post(h.url+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		h.errf("%s: post: %v", phase, err)
		return nil, nil, 0, false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	elapsed = time.Since(t0)
	if err != nil {
		h.errf("%s: read stream: %v", phase, err)
		return nil, nil, 0, false
	}
	if resp.StatusCode != 200 {
		h.errf("%s: status %d (%.300s)", phase, resp.StatusCode, data)
		return nil, nil, 0, false
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	for i, raw := range lines {
		var ln sweepNDLine
		if err := json.Unmarshal(raw, &ln); err != nil {
			h.errf("%s: line %d: %v (%.200s)", phase, i, err, raw)
			return nil, nil, 0, false
		}
		switch {
		case ln.Sweep != nil:
			if i != 0 {
				h.errf("%s: header on line %d, want 0", phase, i)
				return nil, nil, 0, false
			}
		case ln.Done != nil:
			t := ln
			trailer = &t
		case ln.Seq != nil:
			if trailer != nil {
				h.errf("%s: point record after the trailer", phase)
				return nil, nil, 0, false
			}
			recs = append(recs, ln)
		default:
			h.errf("%s: unrecognized line %d (%.200s)", phase, i, raw)
			return nil, nil, 0, false
		}
	}
	if trailer == nil {
		h.errf("%s: stream ended without a trailer", phase)
		return nil, nil, 0, false
	}
	if trailer.Done.Error != "" {
		h.errf("%s: trailer error %q", phase, trailer.Done.Error)
		return nil, nil, 0, false
	}
	return recs, trailer, elapsed, true
}

// killSweep opens a sweep, reads the header plus want point records, then
// slams the connection shut — the client-side kill that resuming with
// "have" is built around.
func (h *harness) killSweep(phase, body string, want int) (got int, ok bool) {
	req, err := http.NewRequest("POST", h.url+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		h.errf("%s: build kill request: %v", phase, err)
		return 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		h.errf("%s: kill post: %v", phase, err)
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		h.errf("%s: kill status %d (%.300s)", phase, resp.StatusCode, data)
		return 0, false
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() {
		h.errf("%s: kill stream produced no header", phase)
		return 0, false
	}
	for got < want && sc.Scan() {
		var ln sweepNDLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			h.errf("%s: kill line: %v", phase, err)
			return got, false
		}
		if ln.Seq != nil {
			got++
		}
	}
	// Closing the body mid-stream cancels the request context server-side.
	return got, got == want
}

func (h *harness) metrics(phase string) map[string]int64 {
	resp, err := h.client.Get(h.url + "/metrics")
	if err != nil {
		h.errf("%s: metrics: %v", phase, err)
		return nil
	}
	defer resp.Body.Close()
	m := map[string]int64{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		h.errf("%s: metrics decode: %v", phase, err)
		return nil
	}
	return m
}

// waitSweepDrain polls /metrics until the killed sweep's work has left the
// scheduler, so the resume's solve accounting is not racing the corpse.
func (h *harness) waitSweepDrain(phase string) bool {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		m := h.metrics(phase)
		if m == nil {
			return false
		}
		if m["in_flight"] == 0 && m["queue_depth"] == 0 {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	h.errf("%s: killed sweep never drained (in-flight work stuck)", phase)
	return false
}

// runSweepPhases drives the /v1/sweep phases: cache dedup against single
// solves, batch amortization vs independent cold solves, and kill/resume.
func runSweepPhases(h *harness, points int, gate float64, check bool) {
	sweepDedup(h)
	sweepAmortization(h, points, gate, check)
	sweepResume(h)
}

// sweepDedup proves the serve-tier dedup story in both directions: points a
// single solve already cached stream back as byte-identical hits, and points
// a sweep solved satisfy later single requests from the cache, also
// byte-identical. This only holds because sweep points run the exact cold
// single-solve path (DESIGN.md "Sweep jobs").
func sweepDedup(h *harness) {
	const tstop, hstep = 2e-6, 1e-8
	warm := []float64{7.00, 7.05, 7.10, 7.15} // solved as singles first
	cold := []float64{7.20, 7.25, 7.30, 7.35} // first solved by the sweep

	singles := map[string][]byte{} // "%.4f" vctl -> single-solve body
	for _, v := range warm {
		status, _, body, err := h.post(sweepRequest(v, tstop, hstep))
		if err != nil || status != 200 {
			h.errf("sweep-dedup: priming single vctl %.4f: status %d err %v", v, status, err)
			return
		}
		singles[fmt.Sprintf("%.4f", v)] = body
	}

	all := append(append([]float64{}, warm...), cold...)
	recs, trailer, _, ok := h.postSweep("sweep-dedup", sweepBody(all, tstop, hstep, 2, ""))
	if !ok {
		return
	}
	if len(recs) != len(all) {
		h.errf("sweep-dedup: %d point records, want %d", len(recs), len(all))
		return
	}
	hits, fresh := 0, 0
	for _, r := range recs {
		key := fmt.Sprintf("%.4f", r.VCtlDC)
		if prior, isWarm := singles[key]; isWarm {
			if r.Cache != "hit" && r.Cache != "coalesced" {
				h.errf("sweep-dedup: pre-solved point %s streamed as %q, want a cache hit", key, r.Cache)
			}
			if !bytes.Equal(prior, r.Body) {
				h.errf("sweep-dedup: point %s sweep body differs from its single-solve body", key)
			}
			hits++
		} else {
			if r.Cache == "hit" {
				h.errf("sweep-dedup: fresh point %s claims a cache hit", key)
			}
			singles[key] = r.Body
			fresh++
		}
	}
	if hits != len(warm) || fresh != len(cold) {
		h.errf("sweep-dedup: %d hits / %d fresh, want %d / %d", hits, fresh, len(warm), len(cold))
	}
	if trailer.Done.Solved > len(cold) {
		h.errf("sweep-dedup: trailer solved %d, want at most %d (primed points must not re-solve)",
			trailer.Done.Solved, len(cold))
	}

	// Reverse direction: singles for the sweep-solved voltages must hit.
	for _, v := range cold {
		status, xcache, body, err := h.post(sweepRequest(v, tstop, hstep))
		key := fmt.Sprintf("%.4f", v)
		if err != nil || status != 200 {
			h.errf("sweep-dedup: single after sweep vctl %s: status %d err %v", key, status, err)
			continue
		}
		if xcache != "hit" {
			h.errf("sweep-dedup: single after sweep vctl %s: X-Cache %q, want hit", key, xcache)
		}
		if !bytes.Equal(body, singles[key]) {
			h.errf("sweep-dedup: single body for vctl %s differs from its sweep record", key)
		}
	}
	fmt.Printf("sweep-dedup: %d pre-solved points hit, %d fresh points seeded the cache for later singles\n",
		hits, fresh)
}

// sweepAmortization measures the tentpole economics: one -sweep-points grid
// sweep versus the same number of independent cold single solves, estimated
// from a sequential cold sample on a disjoint voltage family. The -check
// gate is the acceptance criterion: sweep per-point wall ≤ gate× a cold
// single (0.5 by default; 0 disables the gate for race-instrumented runs,
// whose runtime serializes the lanes and distorts the ratio).
func sweepAmortization(h *harness, points int, gate float64, check bool) {
	// A short solve (~50 steps): the regime a 200-point batch is for, where
	// per-request overhead (HTTP framing, admission, decode) rivals the solve
	// itself. The batch amortizes that overhead on any machine; on multi-core
	// servers lane parallelism stacks on top.
	const tstop, hstep = 5e-7, 1e-8
	const coldSample = 16

	t0 := time.Now()
	for i := 0; i < coldSample; i++ {
		v := 6.50 + 0.05*float64(i) // disjoint from the 4–6 V grid below
		status, xcache, _, err := h.post(sweepRequest(v, tstop, hstep))
		if err != nil || status != 200 {
			h.errf("sweep-amortization: cold single %d: status %d err %v", i, status, err)
			return
		}
		if xcache != "miss" {
			h.errf("sweep-amortization: cold single %d served from %q, want a fresh solve", i, xcache)
			return
		}
	}
	coldMean := time.Since(t0) / coldSample

	recs, trailer, sweepWall, ok := h.postSweep("sweep-amortization",
		sweepGridBody(4.0, 6.0, points, tstop, hstep, 4))
	if !ok {
		return
	}
	if len(recs) != points || trailer.Done.Errors != 0 {
		h.errf("sweep-amortization: %d records / %d errors, want %d / 0", len(recs), trailer.Done.Errors, points)
		return
	}
	if trailer.Done.Solved != points {
		h.errf("sweep-amortization: trailer solved %d, want %d fresh solves", trailer.Done.Solved, points)
	}
	perPoint := sweepWall / time.Duration(points)
	ratio := float64(perPoint) / float64(coldMean)
	fmt.Printf("sweep-amortization: %d-point grid in %v (%v/point) vs cold single %v — %.2fx\n",
		points, sweepWall.Round(time.Millisecond), perPoint.Round(time.Microsecond),
		coldMean.Round(time.Microsecond), ratio)
	if check && gate > 0 && ratio > gate {
		h.errf("sweep-amortization: per-point cost %.2fx a cold single, gate is %.2fx", ratio, gate)
	}
}

// sweepResume kills a sweep after two received records and resumes it with
// have=2. The resumed stream must emit exactly the missing points, each
// once, and the server must re-solve at most the single point that was in
// flight when the connection died: points solved before the cut come back
// from the cache tiers.
func sweepResume(h *harness) {
	const tstop, hstep = 2e-5, 1e-8 // ~10x the mix solve, so the kill lands mid-flight
	const n, have = 12, 2
	var vals []float64
	for i := 0; i < n; i++ {
		vals = append(vals, 9.00+0.05*float64(i))
	}
	body := sweepBody(vals, tstop, hstep, 1, "")

	m0 := h.metrics("sweep-resume")
	if m0 == nil {
		return
	}
	if got, ok := h.killSweep("sweep-resume", body, have); !ok {
		h.errf("sweep-resume: read %d records before the kill, want %d", got, have)
		return
	}
	if !h.waitSweepDrain("sweep-resume") {
		return
	}

	resume := body[:len(body)-1] + fmt.Sprintf(`,"have":%d}`, have)
	recs, trailer, _, ok := h.postSweep("sweep-resume", resume)
	if !ok {
		return
	}
	if len(recs) != n-have || trailer.Done.Emitted != n-have {
		h.errf("sweep-resume: resumed stream emitted %d records (trailer %d), want %d",
			len(recs), trailer.Done.Emitted, n-have)
		return
	}
	seen := map[int]bool{}
	cached := 0
	for i, r := range recs {
		if *r.Seq != have+i {
			h.errf("sweep-resume: record %d has seq %d, want %d", i, *r.Seq, have+i)
		}
		if seen[*r.Seq] {
			h.errf("sweep-resume: seq %d emitted twice", *r.Seq)
		}
		seen[*r.Seq] = true
		if r.Cache == "hit" || r.Cache == "hit-disk" {
			cached++
		}
		if len(r.Body) == 0 {
			h.errf("sweep-resume: seq %d has no body", *r.Seq)
		}
	}
	m1 := h.metrics("sweep-resume")
	if m1 == nil {
		return
	}
	solved := m1["sweep_points_solved"] - m0["sweep_points_solved"]
	if solved > n+1 {
		h.errf("sweep-resume: %d points solved across kill+resume, want at most %d (one in-flight recompute)",
			solved, n+1)
	}
	fmt.Printf("sweep-resume: killed after %d records, resume emitted %d (%d from the cache), %d total solves for %d points\n",
		have, len(recs), cached, solved, n)
}
