package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/solverr"
)

// fakeEngine is a controllable Engine: it can block on a gate (to hold
// requests in flight), wait for its context (to exercise deadlines), or
// fail with a chosen error.
type fakeEngine struct {
	mu     sync.Mutex
	solves int

	gate        chan struct{} // when non-nil, Solve blocks here
	waitForCtx  bool          // when true, Solve blocks until ctx expires
	err         error         // returned error (nil → success)
	partialWith error         // like err, but alongside a partial outcome
}

func (e *fakeEngine) Solves() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.solves
}

func (e *fakeEngine) Solve(ctx context.Context, c *Canonical) (*Outcome, Stats, error) {
	e.mu.Lock()
	e.solves++
	e.mu.Unlock()
	if e.gate != nil {
		select {
		case <-e.gate:
		case <-ctx.Done():
		}
	}
	if e.waitForCtx {
		<-ctx.Done()
		return &Outcome{Analysis: c.Analysis, Partial: true,
				Transient: &TransientOut{Steps: 7, Var: "v", T: []float64{0}, X: []float64{1}}},
			Stats{},
			solverr.New(solverr.KindCanceled, "fake.engine", "deadline expired")
	}
	if e.partialWith != nil {
		return &Outcome{Analysis: c.Analysis, Partial: true}, Stats{}, e.partialWith
	}
	if e.err != nil {
		return nil, Stats{}, e.err
	}
	return &Outcome{Analysis: c.Analysis,
		Transient: &TransientOut{Steps: 42, Var: "v", T: []float64{0, 1}, X: []float64{1, 2}}}, Stats{}, nil
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

const transientReq = `{"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8}}`

// TestSingleFlightDedup is the coalescing contract: N identical concurrent
// requests must trigger exactly one engine solve and receive N bitwise-
// identical bodies.
func TestSingleFlightDedup(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, Engine: eng})

	const n = 8
	type reply struct {
		status int
		xcache string
		body   []byte
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(transientReq))
			if err != nil {
				replies <- reply{status: -1}
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			replies <- reply{resp.StatusCode, resp.Header.Get("X-Cache"), b}
		}()
	}
	// Hold the solve until all followers have joined the flight, so the
	// count below is deterministic rather than racy.
	waitFor(t, "followers to coalesce", func() bool { return s.Metrics().Coalesced.Load() == n-1 })
	close(eng.gate)

	var miss, coalesced int
	var first []byte
	for i := 0; i < n; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("status %d, want 200", r.status)
		}
		switch r.xcache {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Fatalf("unexpected X-Cache %q", r.xcache)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Fatalf("coalesced bodies differ:\n%s\n%s", first, r.body)
		}
	}
	if miss != 1 || coalesced != n-1 {
		t.Fatalf("miss=%d coalesced=%d, want 1 and %d", miss, coalesced, n-1)
	}
	if got := eng.Solves(); got != 1 {
		t.Fatalf("engine solved %d times, want exactly 1", got)
	}
}

// TestCacheDeterminism: a cached response must be bitwise identical to the
// fresh one, end to end through the real engine.
func TestCacheDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := `{"netlist":"I1 0 out SIN(0 1m 10k)\nR1 out 0 1k\nC1 out 0 1u\n","analysis":"transient","options":{"tstop":1e-4,"h":1e-6}}`

	resp1, body1 := post(t, ts.URL, req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("fresh: status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("fresh X-Cache %q, want miss", got)
	}
	resp2, body2 := post(t, ts.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("cached X-Cache %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cached body differs from fresh body")
	}
	// Spelling out the canonical defaults must hit the same cache entry.
	respEq, bodyEq := post(t, ts.URL,
		`{"netlist":"I1 0 out SIN(0 1m 10k)\nR1 out 0 1k\nC1 out 0 1u\n","analysis":"transient","options":{"tstop":1e-4,"h":1e-6},"deadline_ms":60000}`)
	if respEq.Header.Get("X-Cache") != "hit" || !bytes.Equal(body1, bodyEq) {
		t.Fatal("deadline-only variant should hit the same cache entry with identical bytes")
	}

	var r Response
	if err := json.Unmarshal(body1, &r); err != nil {
		t.Fatalf("body decode: %v", err)
	}
	if r.Outcome == nil || r.Transient == nil || r.Transient.Steps <= 0 {
		t.Fatalf("implausible transient outcome: %s", body1)
	}
}

// TestDeadlinePartialResult: an expired per-job deadline returns 408 with
// the partial result computed before cancellation.
func TestDeadlinePartialResult(t *testing.T) {
	eng := &fakeEngine{waitForCtx: true}
	_, ts := newTestServer(t, Config{Workers: 1, Engine: eng})
	resp, body := post(t, ts.URL,
		`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"deadline_ms":30}`)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408: %s", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body decode: %v", err)
	}
	if eb.Kind != "canceled" {
		t.Fatalf("kind %q, want canceled", eb.Kind)
	}
	if len(eb.Partial) == 0 || !bytes.Contains(eb.Partial, []byte(`"partial":true`)) {
		t.Fatalf("408 body must carry the partial result: %s", body)
	}
}

// TestSaturationBackpressure: a full queue yields 429 + Retry-After, and
// the rejected request does not consume a solve.
func TestSaturationBackpressure(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1, Engine: eng})

	// Distinct requests so they cannot coalesce.
	reqs := []string{
		`{"circuit":"paper-vco","vctl_dc":1.1,"analysis":"transient","options":{"tstop":1e-5,"h":1e-8}}`,
		`{"circuit":"paper-vco","vctl_dc":1.2,"analysis":"transient","options":{"tstop":1e-5,"h":1e-8}}`,
		`{"circuit":"paper-vco","vctl_dc":1.3,"analysis":"transient","options":{"tstop":1e-5,"h":1e-8}}`,
	}
	done := make(chan int, len(reqs))
	fire := func(body string) {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
			if err != nil {
				done <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			done <- resp.StatusCode
		}()
	}
	fire(reqs[0]) // occupies the worker
	waitFor(t, "first job in flight", func() bool { return s.Metrics().InFlight.Load() == 1 })
	fire(reqs[1]) // takes the single queue slot
	waitFor(t, "second job queued", func() bool { return s.Metrics().Admitted.Load() == 2 })

	resp, _ := post(t, ts.URL, reqs[2]) // no room: must be rejected
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	close(eng.gate)
	for i := 0; i < 2; i++ {
		if st := <-done; st != http.StatusOK {
			t.Fatalf("in-flight request finished with %d", st)
		}
	}
	if got := s.Metrics().Rejected.Load(); got != 1 {
		t.Fatalf("rejected=%d, want 1", got)
	}
	if got := eng.Solves(); got != 2 {
		t.Fatalf("engine solved %d times, want 2 (rejection must not solve)", got)
	}
}

// TestErrorBoundary maps solver failure kinds to the documented statuses
// and carries the recovery trail in the body.
func TestErrorBoundary(t *testing.T) {
	cases := []struct {
		err    error
		status int
		kind   string
	}{
		{solverr.New(solverr.KindBudget, "core.envelope", "step budget exhausted"), 422, "budget"},
		{solverr.New(solverr.KindSingular, "la.lu", "singular pivot").Attempt("chord").Attempt("full-newton"), 500, "singular"},
		{solverr.New(solverr.KindBreakdown, "krylov.gmres", "happy breakdown gone wrong"), 500, "breakdown"},
		{solverr.New(solverr.KindNonFinite, "core.envelope.step", "NaN in residual"), 500, "non-finite"},
	}
	for _, tc := range cases {
		eng := &fakeEngine{err: tc.err}
		_, ts := newTestServer(t, Config{Workers: 1, Engine: eng})
		resp, body := post(t, ts.URL, transientReq)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.kind, resp.StatusCode, tc.status)
		}
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("%s: body decode: %v (%s)", tc.kind, err, body)
		}
		if eb.Kind != tc.kind {
			t.Fatalf("kind %q, want %q", eb.Kind, tc.kind)
		}
		if tc.kind == "singular" && len(eb.Trail) != 2 {
			t.Fatalf("singular: trail %v, want the 2 recovery attempts", eb.Trail)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Engine: &fakeEngine{}})
	bad := []string{
		`not json`,
		`{"analysis":"transient"}`,
		`{"circuit":"paper-vco","analysis":"warp-10"}`,
		`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"typo":1}`,
	}
	for _, b := range bad {
		resp, _ := post(t, ts.URL, b)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400", b, resp.StatusCode)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Engine: &fakeEngine{}})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	post(t, ts.URL, transientReq)
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap map[string]int64
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	if snap["requests"] != 1 || snap["admitted"] != 1 || snap["succeeded"] != 1 {
		t.Fatalf("metrics snapshot off: %v", snap)
	}
}

func TestDebugEndpointsGated(t *testing.T) {
	_, tsOff := newTestServer(t, Config{Workers: 1, Engine: &fakeEngine{}})
	resp, err := http.Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof must be off without Debug")
	}

	_, tsOn := newTestServer(t, Config{Workers: 1, Engine: &fakeEngine{}, Debug: true})
	resp, err = http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with Debug: status %d", resp.StatusCode)
	}
}

// TestShootingCollapsedPeriod: an f0 guess four decades above the paper
// VCO's 0.74 MHz lets autonomous shooting shrink the period onto the start
// state, where Φ_T(x0) = x0 holds trivially. The served answer must be a
// stagnation error, not a 200 body claiming a petahertz oscillation.
func TestShootingCollapsedPeriod(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Engine: CircuitEngine{}})
	resp, body := post(t, ts.URL, `{"circuit":"paper-vco","analysis":"shooting","options":{"f0":7.5e9}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "stagnation" {
		t.Fatalf("error body %s (err %v), want kind stagnation", body, err)
	}
}

// TestQuasiperiodicWholeSlowPeriod: the served quasiperiodic solve seeds
// from an envelope run of exactly one slow period, which stops a rounding
// error short of it. Periods where that happens must still answer 200.
func TestQuasiperiodicWholeSlowPeriod(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Engine: CircuitEngine{}})
	for _, period := range []string{"1e-4", "2e-4"} {
		resp, body := post(t, ts.URL, `{"circuit":"paper-vco","analysis":"quasiperiodic","options":{"period":`+period+`}}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("period %s: status %d, want 200 (%s)", period, resp.StatusCode, body)
		}
	}
}

// TestDenseMemoryAdmission: a request whose dense matrices would not fit is
// refused as bad input before any preamble or solve. Harmonic balance on
// the 31-stage ring (93 states) at nharm 257 would factor a dense
// 23,902-unknown system, two matrices of 4.6 GB; matrix-free quasiperiodic
// at n1 65, n2 64 would hold 64 line blocks of 6,045² and a factored copy of
// each, 37 GB. Each request carries a short deadline and the engine call a
// canceled context, so that code without the cap stops in the preamble,
// before the grid is allocated, instead of running the machine out of
// memory.
func TestDenseMemoryAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Engine: CircuitEngine{}})
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, body := range []string{
		`{"circuit":"ring-vco?stages=31","analysis":"hb","options":{"nharm":257}`,
		`{"circuit":"ring-vco?stages=31","analysis":"quasiperiodic","options":{"period":1e-6,"n1":65,"n2":64}`,
	} {
		resp, out := post(t, ts.URL, body+`,"deadline_ms":50}`)
		var eb ErrorBody
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(out, &eb) != nil || eb.Kind != "bad-input" {
			t.Errorf("%s: status %d body %s, want 400 bad-input", body, resp.StatusCode, out)
		}

		req, err := DecodeRequest(strings.NewReader(body + "}"))
		if err != nil {
			t.Fatal(err)
		}
		c, err := req.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		res, st, err := CircuitEngine{}.Solve(canceled, c)
		if !solverr.IsKind(err, solverr.KindBadInput) || res != nil || st.ICNS != 0 || st.SolveNS != 0 {
			t.Errorf("%s: engine returned %v with stats %+v, want a bad-input error before any preamble or solve", body, err, st)
		}
	}
}
