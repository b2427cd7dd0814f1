package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/par"
	"repro/internal/solverr"
)

// sweepEngine is a controllable Engine for sweep tests. Unlike fakeEngine it
// derives the outcome from the point's control voltage (so distinct points
// have distinct bodies), honors context cancellation while gated (so a
// killed sweep's in-flight point dies instead of completing), and can fail a
// chosen point.
type sweepEngine struct {
	mu     sync.Mutex
	solves int

	gate     chan struct{} // when non-nil, each Solve consumes one token
	failVCtl float64       // when failErr != nil, solves of this point fail
	failErr  error
}

func (e *sweepEngine) Solves() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.solves
}

func (e *sweepEngine) setFail(vctl float64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failVCtl, e.failErr = vctl, err
}

func (e *sweepEngine) Solve(ctx context.Context, c *Canonical) (*Outcome, Stats, error) {
	e.mu.Lock()
	e.solves++
	failErr := e.failErr
	failVCtl := e.failVCtl
	e.mu.Unlock()
	if e.gate != nil {
		select {
		case <-e.gate:
		case <-ctx.Done():
			return nil, Stats{}, solverr.Wrap(solverr.KindCanceled, "sweeptest.engine", ctx.Err())
		}
	}
	if failErr != nil && c.VCtlDC == failVCtl {
		return nil, Stats{}, failErr
	}
	return &Outcome{Analysis: c.Analysis,
		Transient: &TransientOut{Steps: 10 + int(c.VCtlDC*100), Var: "v",
			T: []float64{0, 1}, X: []float64{c.VCtlDC, 2 * c.VCtlDC}}}, Stats{}, nil
}

// sweepLine is the union of the three NDJSON line shapes: header, point
// record, trailer. Point records are recognized by the presence of "seq".
type sweepLine struct {
	Sweep *sweepHeader  `json:"sweep"`
	Done  *sweepTrailer `json:"done"`

	Seq     *int            `json:"seq"`
	Index   int             `json:"index"`
	VCtlDC  float64         `json:"vctl_dc"`
	Duty    float64         `json:"duty"`
	Circuit string          `json:"circuit"`
	Hash    string          `json:"hash"`
	Cache   string          `json:"cache"`
	Status  int             `json:"status"`
	Body    json.RawMessage `json:"body"`
	Error   json.RawMessage `json:"error"`
}

func postSweep(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read sweep stream: %v", err)
	}
	return resp, b
}

// parseSweep splits an NDJSON sweep stream into header, point records and
// trailer, checking basic shape along the way.
func parseSweep(t *testing.T, data []byte) (sweepHeader, []sweepLine, *sweepTrailer) {
	t.Helper()
	var hdr sweepHeader
	var recs []sweepLine
	var done *sweepTrailer
	sawHeader := false
	for i, ln := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var sl sweepLine
		if err := json.Unmarshal(ln, &sl); err != nil {
			t.Fatalf("line %d: bad JSON %q: %v", i, ln, err)
		}
		switch {
		case sl.Sweep != nil:
			if i != 0 {
				t.Fatalf("header on line %d, want line 0", i)
			}
			hdr, sawHeader = *sl.Sweep, true
		case sl.Done != nil:
			done = sl.Done
		case sl.Seq != nil:
			if done != nil {
				t.Fatalf("point record after trailer on line %d", i)
			}
			recs = append(recs, sl)
		default:
			t.Fatalf("unclassifiable line %d: %q", i, ln)
		}
	}
	if !sawHeader {
		t.Fatalf("stream has no header line: %q", data)
	}
	return hdr, recs, done
}

const sweepBase = `"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8}`

// TestSweepStreamsPlanOrder is the basic contract: a values sweep streams a
// header, one record per point in continuation (ascending) order carrying
// the original request index, and a trailer with consistent accounting.
func TestSweepStreamsPlanOrder(t *testing.T) {
	eng := &sweepEngine{}
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, Engine: eng})

	resp, raw := postSweep(t, ts.URL,
		`{`+sweepBase+`,"sweep":{"param":"vctl_dc","values":[2.5,1.0,4.0]},"lanes":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	hdr, recs, done := parseSweep(t, raw)
	if resp.Header.Get("X-Sweep-Hash") != hdr.Hash || len(hdr.Hash) != 64 {
		t.Fatalf("sweep hash mismatch: header %q, X-Sweep-Hash %q", hdr.Hash, resp.Header.Get("X-Sweep-Hash"))
	}
	if hdr.Param != SweepParamVCtl || hdr.Points != 3 || hdr.Lanes != 2 {
		t.Fatalf("header = %+v", hdr)
	}
	if done == nil {
		t.Fatal("stream has no trailer")
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	wantVals := []float64{1.0, 2.5, 4.0} // continuation order
	wantIdx := []int{1, 0, 2}            // original positions
	for i, r := range recs {
		if *r.Seq != i || r.VCtlDC != wantVals[i] || r.Index != wantIdx[i] {
			t.Fatalf("record %d = seq %d vctl %g index %d, want seq %d vctl %g index %d",
				i, *r.Seq, r.VCtlDC, r.Index, i, wantVals[i], wantIdx[i])
		}
		if len(r.Hash) != 64 || len(r.Body) == 0 || r.Error != nil {
			t.Fatalf("record %d malformed: %+v", i, r)
		}
		// The embedded body's hash must be the record's (single-solve) hash.
		var br Response
		if err := json.Unmarshal(r.Body, &br); err != nil || br.Hash != r.Hash {
			t.Fatalf("record %d body hash %q != record hash %q (err %v)", i, br.Hash, r.Hash, err)
		}
	}
	if done.Points != 3 || done.Emitted != 3 || done.Solved != 3 || done.Errors != 0 {
		t.Fatalf("trailer = %+v", done)
	}
	if got := s.Metrics().SweepCompleted.Load(); got != 1 {
		t.Fatalf("sweep_completed = %d, want 1", got)
	}
}

// TestSweepCorners covers the corner-set sweep: named circuits in request
// order, labels on the records.
func TestSweepCorners(t *testing.T) {
	eng := &sweepEngine{}
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, Engine: eng})

	resp, raw := postSweep(t, ts.URL,
		`{"analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"circuit","corners":["paper-vco-air","paper-vco"]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	_, recs, done := parseSweep(t, raw)
	if len(recs) != 2 || done == nil || done.Errors != 0 {
		t.Fatalf("recs %d, trailer %+v", len(recs), done)
	}
	want := []string{"paper-vco-air", "paper-vco"} // request order preserved
	for i, r := range recs {
		if r.Circuit != want[i] || *r.Seq != i {
			t.Fatalf("record %d circuit %q seq %d, want %q seq %d", i, r.Circuit, *r.Seq, want[i], i)
		}
	}
	if recs[0].Hash == recs[1].Hash {
		t.Fatal("corner points share a content hash")
	}
}

// TestSweepWarmStartDeterminism is the byte-identity contract: every
// per-point body of a sweep is bitwise-identical to the cold single solve of
// the same point — at any worker count, and across worker counts. Uses the
// real circuit engine so the bytes cover the full solve + encode path.
func TestSweepWarmStartDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("real-engine sweep determinism is not a -short test")
	}
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)

	const base = `"circuit":"paper-vco","analysis":"transient","options":{"tstop":2e-6,"h":1e-8}`
	vals := []float64{1.6, 1.8, 2.0, 2.2}
	var ref map[float64][]byte // bodies from the first worker count

	for _, w := range []int{1, 2, 8} {
		par.SetWorkers(w)

		// Cold single solves, each on a fresh server (empty cache).
		single := make(map[float64][]byte, len(vals))
		_, ts1 := newTestServer(t, Config{Workers: 2, QueueCap: 8})
		for _, v := range vals {
			resp, body := post(t, ts1.URL, fmt.Sprintf(`{%s,"vctl_dc":%g}`, base, v))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("workers=%d single vctl=%g: status %d body %s", w, v, resp.StatusCode, body)
			}
			single[v] = body
		}

		// The same points as one sweep on another fresh server.
		_, ts2 := newTestServer(t, Config{Workers: 2, QueueCap: 8})
		resp, raw := postSweep(t, ts2.URL,
			fmt.Sprintf(`{%s,"sweep":{"param":"vctl_dc","values":[1.6,1.8,2.0,2.2]},"lanes":2}`, base))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d sweep: status %d body %s", w, resp.StatusCode, raw)
		}
		_, recs, done := parseSweep(t, raw)
		if done == nil || len(recs) != len(vals) || done.Errors != 0 {
			t.Fatalf("workers=%d: %d records, trailer %+v", w, len(recs), done)
		}
		for _, r := range recs {
			if !bytes.Equal(r.Body, single[r.VCtlDC]) {
				t.Fatalf("workers=%d vctl=%g: sweep body differs from cold single solve\nsweep:  %s\nsingle: %s",
					w, r.VCtlDC, r.Body, single[r.VCtlDC])
			}
		}
		if ref == nil {
			ref = single
			continue
		}
		for v, body := range single {
			if !bytes.Equal(body, ref[v]) {
				t.Fatalf("vctl=%g: bodies differ between worker counts", v)
			}
		}
	}
}

// TestSweepCrossJobDedup is the cache-layer satellite: sweep points live
// under the single-solve content hash, so a sweep hits what a single request
// cached and vice versa, byte-for-byte.
func TestSweepCrossJobDedup(t *testing.T) {
	eng := &sweepEngine{}
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, Engine: eng})

	// Single first: the sweep's matching point must hit.
	resp, singleA := post(t, ts.URL, `{`+sweepBase+`,"vctl_dc":1.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single: status %d", resp.StatusCode)
	}
	_, raw := postSweep(t, ts.URL,
		`{`+sweepBase+`,"sweep":{"param":"vctl_dc","values":[1.5,2.5]},"lanes":1}`)
	_, recs, done := parseSweep(t, raw)
	if done == nil || len(recs) != 2 {
		t.Fatalf("sweep: %d records, trailer %+v", len(recs), done)
	}
	if recs[0].Cache != "hit" || !bytes.Equal(recs[0].Body, singleA) {
		t.Fatalf("point 1.5: cache %q, body equal %v — want a byte-identical cache hit",
			recs[0].Cache, bytes.Equal(recs[0].Body, singleA))
	}
	if recs[1].Cache != "miss" {
		t.Fatalf("point 2.5: cache %q, want miss", recs[1].Cache)
	}
	if done.CacheHits != 1 || done.Solved != 1 {
		t.Fatalf("trailer = %+v", done)
	}

	// Sweep first: a later single request must hit the sweep's point.
	resp, singleB := post(t, ts.URL, `{`+sweepBase+`,"vctl_dc":2.5}`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("single after sweep: status %d X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(singleB, recs[1].Body) {
		t.Fatal("single body differs from the sweep point that populated the cache")
	}
	if got := eng.Solves(); got != 2 {
		t.Fatalf("engine solves = %d, want 2 (one per distinct point)", got)
	}
	if got := s.Metrics().SweepPointsCached.Load(); got != 1 {
		t.Fatalf("sweep_points_cached = %d, want 1", got)
	}
}

// TestSweepErrorsNotCached: a failing point yields an error record
// mid-stream, the sweep continues and completes, and the failure is cached
// nowhere — a retry re-solves it.
func TestSweepErrorsNotCached(t *testing.T) {
	eng := &sweepEngine{}
	eng.setFail(2.0, solverr.New(solverr.KindStagnation, "sweeptest.engine", "injected divergence"))
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, Engine: eng})

	body := `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1.0,2.0,3.0]},"lanes":1}`
	resp, raw := postSweep(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	_, recs, done := parseSweep(t, raw)
	if done == nil || len(recs) != 3 {
		t.Fatalf("%d records, trailer %+v", len(recs), done)
	}
	bad := recs[1]
	if bad.VCtlDC != 2.0 || bad.Status < 500 || bad.Error == nil || bad.Body != nil {
		t.Fatalf("failed point record = %+v, want an error record for vctl 2.0", bad)
	}
	var eb ErrorBody
	if err := json.Unmarshal(bad.Error, &eb); err != nil || eb.Kind != "stagnation" {
		t.Fatalf("error body = %s (err %v), want kind stagnation", bad.Error, err)
	}
	if done.Errors != 1 || done.Solved != 2 || done.Emitted != 3 {
		t.Fatalf("trailer = %+v", done)
	}

	// The failure must not be cached: the same point re-solves...
	before := eng.Solves()
	resp, _ = post(t, ts.URL, `{`+sweepBase+`,"vctl_dc":2.0}`)
	if resp.StatusCode < 500 || eng.Solves() != before+1 {
		t.Fatalf("retry: status %d, solves %d→%d — error was served from a cache",
			resp.StatusCode, before, eng.Solves())
	}
	// ...and succeeds once the fault clears, while good points stay cached.
	eng.setFail(0, nil)
	resp, _ = post(t, ts.URL, `{`+sweepBase+`,"vctl_dc":2.0}`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("after clearing fault: status %d X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	resp, _ = post(t, ts.URL, `{`+sweepBase+`,"vctl_dc":1.0}`)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("good sweep point not cached: X-Cache %q", resp.Header.Get("X-Cache"))
	}
}

// killSweep posts a sweep, reads the header plus readLines point records
// (releasing one gate token per expected solve), then severs the connection,
// returning the records read so far.
func killSweep(t *testing.T, url, body string, eng *sweepEngine, readLines int) []sweepLine {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	br := bufio.NewReader(resp.Body)
	hdrLine, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("read header: %v (got %q)", err, hdrLine)
	}
	var got []sweepLine
	for i := 0; i < readLines; i++ {
		eng.gate <- struct{}{}
		ln, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read record %d: %v", i, err)
		}
		var sl sweepLine
		if err := json.Unmarshal([]byte(ln), &sl); err != nil || sl.Seq == nil {
			t.Fatalf("record %d: %q (err %v)", i, ln, err)
		}
		got = append(got, sl)
	}
	resp.Body.Close() // client dies mid-stream
	return got
}

// TestSweepResume kills a sweep mid-flight (client hangup cancels the
// in-flight solve) and resumes from the received-line count: the
// concatenated streams equal an uninterrupted run, and no point is solved
// twice except the one that was in flight at the kill.
func TestSweepResume(t *testing.T) {
	const n = 8
	body := `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1.0,1.5,2.0,2.5,3.0,3.5,4.0,4.5]},"lanes":1}`

	// Reference: the same sweep, uninterrupted, on an independent server.
	refEng := &sweepEngine{}
	_, refTS := newTestServer(t, Config{Workers: 2, QueueCap: 8, Engine: refEng})
	_, refRaw := postSweep(t, refTS.URL, body)
	_, refRecs, refDone := parseSweep(t, refRaw)
	if refDone == nil || len(refRecs) != n {
		t.Fatalf("reference run: %d records, trailer %+v", len(refRecs), refDone)
	}

	eng := &sweepEngine{gate: make(chan struct{}, 64)}
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, Engine: eng})

	const have = 3
	got := killSweep(t, ts.URL, body, eng, have)

	// The in-flight point (if any) dies with the connection.
	waitFor(t, "in-flight drain", func() bool {
		return s.Metrics().InFlight.Load() == 0 && s.Metrics().QueueDepth.Load() == 0
	})
	waitFor(t, "sweep cancel accounting", func() bool {
		return s.Metrics().SweepCanceled.Load() == 1
	})
	if solved := eng.Solves(); solved > have+1 {
		t.Fatalf("interrupted run solved %d points, want ≤ %d (received + in-flight)", solved, have+1)
	}

	// Resume with the received-line count; let everything through the gate.
	for i := 0; i < 2*n; i++ {
		eng.gate <- struct{}{}
	}
	resp, raw := postSweep(t, ts.URL, body[:len(body)-1]+`,"have":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume status = %d body %s", resp.StatusCode, raw)
	}
	hdr, recs, done := parseSweep(t, raw)
	if hdr.Have != have {
		t.Fatalf("resume header have = %d, want %d", hdr.Have, have)
	}
	if done == nil || done.Emitted != n-have {
		t.Fatalf("resume trailer = %+v, want %d emitted", done, n-have)
	}
	got = append(got, recs...)

	// Concatenated streams must equal the uninterrupted run, byte for byte.
	if len(got) != n {
		t.Fatalf("concatenated stream has %d records, want %d", len(got), n)
	}
	for i, r := range got {
		ref := refRecs[i]
		if *r.Seq != *ref.Seq || r.Index != ref.Index || r.VCtlDC != ref.VCtlDC ||
			r.Hash != ref.Hash || !bytes.Equal(r.Body, ref.Body) {
			t.Fatalf("record %d differs from uninterrupted run:\ngot:  seq %d idx %d vctl %g %s\nwant: seq %d idx %d vctl %g %s",
				i, *r.Seq, r.Index, r.VCtlDC, r.Body, *ref.Seq, ref.Index, ref.VCtlDC, ref.Body)
		}
	}
	// No point solved twice except the in-flight one.
	if total := eng.Solves(); total > n+1 {
		t.Fatalf("total engine solves = %d, want ≤ %d", total, n+1)
	}
}

// TestSweepCacheReplay: points the server completed but the client never
// received come back from the cache on resume — emitted with Cache "hit",
// byte-identical, counted in the trailer's cache_hits, and not re-solved.
func TestSweepCacheReplay(t *testing.T) {
	const n = 6
	body := `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1.0,1.5,2.0,2.5,3.0,3.5]},"lanes":1}`

	refEng := &sweepEngine{}
	_, refTS := newTestServer(t, Config{Workers: 2, QueueCap: 8, Engine: refEng})
	_, refRaw := postSweep(t, refTS.URL, body)
	_, refRecs, _ := parseSweep(t, refRaw)

	eng := &sweepEngine{gate: make(chan struct{}, 64)}
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, Engine: eng})

	// Let the server complete 3 points but read only 1 before dying.
	eng.gate <- struct{}{}
	eng.gate <- struct{}{}
	got := killSweep(t, ts.URL, body, eng, 1)
	waitFor(t, "three solved points", func() bool {
		return s.Metrics().SweepPointsSolved.Load() >= 3
	})
	waitFor(t, "in-flight drain", func() bool {
		return s.Metrics().InFlight.Load() == 0 && s.Metrics().SweepCanceled.Load() == 1
	})

	for i := 0; i < 2*n; i++ {
		eng.gate <- struct{}{}
	}
	before := eng.Solves()
	resp, raw := postSweep(t, ts.URL, body[:len(body)-1]+`,"have":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume status = %d", resp.StatusCode)
	}
	_, recs, done := parseSweep(t, raw)
	if done == nil || len(recs) != n-1 {
		t.Fatalf("resume: %d records, trailer %+v", len(recs), done)
	}
	// Seqs 1 and 2 were solved before the kill: cache hits, not re-solves.
	for i := 0; i < 2; i++ {
		r := recs[i]
		if *r.Seq != i+1 || r.Cache != "hit" {
			t.Fatalf("record seq %d cache %q, want a cache hit", *r.Seq, r.Cache)
		}
		if !bytes.Equal(r.Body, refRecs[i+1].Body) {
			t.Fatalf("cached body for seq %d differs from uninterrupted run", i+1)
		}
	}
	if done.CacheHits != 2 || done.Solved != n-3 {
		t.Fatalf("trailer = %+v, want 2 cache hits and %d solves", done, n-3)
	}
	if solved := eng.Solves() - before; solved != n-3 {
		t.Fatalf("resume ran %d engine solves, want %d (only the points never solved)", solved, n-3)
	}
	got = append(got, recs...)
	for i, r := range got {
		if !bytes.Equal(r.Body, refRecs[i].Body) {
			t.Fatalf("concatenated record %d differs from uninterrupted run", i)
		}
	}
}

// TestSweepResumeFromDisk: with a memory tier that holds about one body and
// a disk store, the points a resume asks for again were evicted from memory
// and come back from disk — Cache "hit-disk", byte-identical, no engine
// solve.
func TestSweepResumeFromDisk(t *testing.T) {
	const n = 4
	body := `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1.0,1.5,2.0,2.5]},"lanes":1}`

	_, refTS := newTestServer(t, Config{Workers: 2, QueueCap: 8, Engine: &sweepEngine{}})
	_, refRaw := postSweep(t, refTS.URL, body)
	_, refRecs, _ := parseSweep(t, refRaw)
	size := 0
	for _, r := range refRecs {
		size = max(size, len(r.Body))
	}

	eng := &sweepEngine{}
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, Engine: eng,
		CacheBytes: int64(size + size/2), StoreDir: t.TempDir()})
	_, raw := postSweep(t, ts.URL, body)
	if _, recs, done := parseSweep(t, raw); done == nil || done.Solved != n || len(recs) != n {
		t.Fatalf("first run: %d records, trailer %+v", len(recs), done)
	}
	if s.Metrics().CacheEvictions.Load() == 0 {
		t.Fatalf("memory tier of %d bytes evicted nothing", size+size/2)
	}

	resp, raw := postSweep(t, ts.URL, body[:len(body)-1]+`,"have":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume status = %d", resp.StatusCode)
	}
	_, recs, done := parseSweep(t, raw)
	if done == nil || len(recs) != n-1 || done.CacheHits != n-1 || done.Solved != 0 {
		t.Fatalf("resume: %d records, trailer %+v, want %d disk hits", len(recs), done, n-1)
	}
	for i, r := range recs {
		if *r.Seq != i+1 || r.Cache != "hit-disk" || !bytes.Equal(r.Body, refRecs[i+1].Body) {
			t.Fatalf("record seq %d cache %q (same bytes %v), want a byte-identical hit-disk",
				*r.Seq, r.Cache, bytes.Equal(r.Body, refRecs[i+1].Body))
		}
	}
	if got := eng.Solves(); got != n {
		t.Fatalf("engine solves = %d, want %d (the resume must solve nothing)", got, n)
	}
}

// TestSweepResumeCacheOff: with both cache tiers off, resume is only as
// good as the client's prefix — a resumed sweep re-solves exactly the
// points the client lacks, a repeated single request never hits, and a
// resume that holds every point solves nothing.
func TestSweepResumeCacheOff(t *testing.T) {
	const n = 4
	body := `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1.0,1.5,2.0,2.5]},"lanes":2}`
	eng := &sweepEngine{}
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, Engine: eng, CacheBytes: -1})

	_, raw := postSweep(t, ts.URL, body)
	_, first, _ := parseSweep(t, raw)
	_, raw = postSweep(t, ts.URL, body[:len(body)-1]+`,"have":1}`)
	_, recs, done := parseSweep(t, raw)
	if done == nil || len(recs) != n-1 || done.Solved != n-1 || done.CacheHits != 0 {
		t.Fatalf("resume: %d records, trailer %+v, want %d fresh solves", len(recs), done, n-1)
	}
	for i, r := range recs {
		if r.Cache != "miss" || !bytes.Equal(r.Body, first[i+1].Body) {
			t.Fatalf("resumed seq %d: cache %q, same bytes %v", *r.Seq, r.Cache, bytes.Equal(r.Body, first[i+1].Body))
		}
	}
	if got := eng.Solves(); got != n+n-1 {
		t.Fatalf("engine solves = %d, want %d", got, n+n-1)
	}

	for i := 0; i < 2; i++ {
		resp, _ := post(t, ts.URL, `{`+sweepBase+`,"vctl_dc":1.0}`)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("single %d: status %d X-Cache %q, want a fresh solve", i, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
	}
	if got := s.Metrics().CacheHits.Load(); got != 0 {
		t.Fatalf("cache_hits = %d with the cache off", got)
	}

	// A client holding every point gets a header and an empty trailer.
	solves := eng.Solves()
	resp, raw := postSweep(t, ts.URL, body[:len(body)-1]+fmt.Sprintf(`,"have":%d}`, n))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("have=%d: status %d body %s", n, resp.StatusCode, raw)
	}
	hdr, recs, done := parseSweep(t, raw)
	if hdr.Have != n || len(recs) != 0 || done == nil || done.Emitted != 0 || done.Points != n {
		t.Fatalf("have=%d: header %+v, %d records, trailer %+v", n, hdr, len(recs), done)
	}
	if got := eng.Solves(); got != solves {
		t.Fatalf("have=%d ran %d engine solves", n, got-solves)
	}
}

// TestSweepFaultInjectedFailure drives the real engine with injected Newton
// failures (persistent, so the supervisor's escalation ladder cannot rescue
// them): every point dies with an error record yet the stream completes, and
// once the fault is disarmed the same sweep re-solves everything fresh — the
// failures were cached nowhere.
func TestSweepFaultInjectedFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("real-engine fault injection is not a -short test")
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	body := `{"circuit":"paper-vco","analysis":"transient","options":{"tstop":2e-6,"h":1e-8},` +
		`"sweep":{"param":"vctl_dc","values":[1.6,1.8,2.0]},"lanes":1}`

	disarm := faultinject.Arm(faultinject.NewPlan().Fail(faultinject.SiteNewtonFail, faultinject.Always()))
	resp, raw := postSweep(t, ts.URL, body)
	disarm()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	_, recs, done := parseSweep(t, raw)
	if done == nil || len(recs) != 3 || done.Errors != 3 {
		t.Fatalf("%d records, trailer %+v — want 3 error records and a trailer", len(recs), done)
	}
	for i, r := range recs {
		if r.Error == nil || r.Status < 400 || r.Body != nil {
			t.Fatalf("record %d = %+v, want an error record", i, r)
		}
	}
	if got := s.Metrics().SweepPointsFailed.Load(); got != 3 {
		t.Fatalf("sweep_points_failed = %d, want 3", got)
	}

	// Fault gone: the same sweep must re-solve every point from scratch —
	// nothing of the failed run was cached.
	resp, raw = postSweep(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-run status = %d", resp.StatusCode)
	}
	_, recs2, done2 := parseSweep(t, raw)
	if done2 == nil || done2.Errors != 0 || done2.Solved != 3 || len(recs2) != 3 {
		t.Fatalf("re-run: %d records, trailer %+v — want 3 fresh solves", len(recs2), done2)
	}
	for i, r := range recs2 {
		if r.Cache != "miss" || len(r.Body) == 0 {
			t.Fatalf("re-run record %d cache %q — a failed point was served from a cache", i, r.Cache)
		}
	}
}

// TestSweepDeadline: a sweep whose points cannot finish inside deadline_ms
// streams its header, drops the in-flight point, and closes with an
// error-bearing trailer instead of hanging.
func TestSweepDeadline(t *testing.T) {
	eng := &sweepEngine{gate: make(chan struct{})} // never released
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, Engine: eng})

	resp, raw := postSweep(t, ts.URL,
		`{`+sweepBase+`,"sweep":{"param":"vctl_dc","values":[1.0,2.0]},"lanes":1,"deadline_ms":100}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (header must commit before the deadline hits)", resp.StatusCode)
	}
	_, recs, done := parseSweep(t, raw)
	if len(recs) != 0 {
		t.Fatalf("emitted %d records, want 0", len(recs))
	}
	if done == nil || done.Error == "" || done.Emitted != 0 {
		t.Fatalf("trailer = %+v, want an error-bearing trailer", done)
	}
	if got := s.Metrics().SweepCanceled.Load(); got != 1 {
		t.Fatalf("sweep_canceled = %d, want 1", got)
	}
}

// TestSweepSaturated: when the scheduler admits no lane, the sweep fails
// whole with 429 before committing a stream.
func TestSweepSaturated(t *testing.T) {
	eng := &sweepEngine{gate: make(chan struct{})}
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: -1, Engine: eng})

	// Occupy the only worker with a single solve.
	release := make(chan struct{})
	go func() {
		defer close(release)
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
			strings.NewReader(`{`+sweepBase+`,"vctl_dc":9.0}`))
		if err == nil {
			io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, "worker occupied", func() bool { return s.Metrics().InFlight.Load() == 1 })

	resp, body := postSweep(t, ts.URL,
		`{`+sweepBase+`,"sweep":{"param":"vctl_dc","values":[1.0,2.0]},"lanes":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d body %s, want 429", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "saturated" {
		t.Fatalf("error body = %s (err %v)", body, err)
	}
	eng.gate <- struct{}{}
	<-release
}

// TestSweepBadRequests: every malformed sweep is rejected with 400 before
// anything touches the scheduler or engine.
func TestSweepBadRequests(t *testing.T) {
	eng := &sweepEngine{}
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, Engine: eng})

	cases := []struct{ name, body string }{
		{"missing param", `{` + sweepBase + `,"sweep":{"values":[1,2]}}`},
		{"unknown param", `{` + sweepBase + `,"sweep":{"param":"temp","values":[1,2]}}`},
		{"no grid or values", `{` + sweepBase + `,"sweep":{"param":"vctl_dc"}}`},
		{"grid and values", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","from":1,"to":2,"points":3,"values":[1]}}`},
		{"one-point grid", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","from":1,"to":2,"points":1}}`},
		{"degenerate grid", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","from":2,"to":2,"points":4}}`},
		{"grid without points", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","from":1,"to":2}}`},
		{"too many points", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","from":0.1,"to":2,"points":4096}}`},
		{"duplicate values", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1.5,1.5]}}`},
		{"out-of-range point", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1,25]}}`},
		{"negative point", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[-1,1]}}`},
		{"base sets swept field", `{` + sweepBase + `,"vctl_dc":1.5,"sweep":{"param":"vctl_dc","values":[1,2]}}`},
		{"corners on vctl sweep", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1,2],"corners":["paper-vco"]}}`},
		{"corner sweep with base circuit", `{` + sweepBase + `,"sweep":{"param":"circuit","corners":["paper-vco"]}}`},
		{"corner sweep with values", `{"analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"circuit","corners":["paper-vco"],"values":[1]}}`},
		{"empty corners", `{"analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"circuit"}}`},
		{"duplicate corners", `{"analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"circuit","corners":["paper-vco","paper-vco"]}}`},
		{"unknown corner", `{"analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"circuit","corners":["paper-vco-x"]}}`},
		{"lanes over cap", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1,2]},"lanes":99}`},
		{"negative lanes", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1,2]},"lanes":-1}`},
		{"negative have", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1,2]},"have":-1}`},
		{"have beyond plan", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1,2]},"have":3}`},
		{"resume flag", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1,2]},"resume":true,"have":1}`},
		{"negative deadline", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1,2]},"deadline_ms":-5}`},
		{"unknown field", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1,2]},"bogus":1}`},
		{"trailing garbage", `{` + sweepBase + `,"sweep":{"param":"vctl_dc","values":[1,2]}}extra`},
		{"not json", `sweep all the things`},
	}
	for _, tc := range cases {
		resp, body := postSweep(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d body %s, want 400", tc.name, resp.StatusCode, body)
		}
	}
	if got := eng.Solves(); got != 0 {
		t.Fatalf("engine solved %d points from invalid sweeps", got)
	}
	if got := s.Metrics().BadInput.Load(); got != int64(len(cases)) {
		t.Fatalf("bad_input = %d, want %d", got, len(cases))
	}
}
