package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/par"
	"repro/internal/serve"
)

// The serve-mix workload: one in-process server (one solve worker, a queue
// of four, the solver pool pinned to one worker) on a loopback listener,
// driven by two closed-loop clients on one keep-alive connection each. The
// loop is closed because the service's callers (the CLI, sweep scripts) wait
// for each reply. The cold client sends distinct requests, so every one is a
// solve that writes the cache; the hot client replays the pre-solved warm
// set in alternative spellings, so every one reads the cache, until the cold
// client is done.

// Request kinds of the mix. Each one's inputs come from a grid on which it
// solves; the paper-VCO analyses that start from settle-and-shoot (envelope,
// hb) fail at scattered control voltages (README.md), so the mix avoids them.
const (
	kindVCOTransient  = iota // paper-vco transient over 2e-5 s at h = 1e-8, knob vctl_dc
	kindBuckEnvelope         // buck ripple envelope over 20 switching periods, knob duty
	kindBuckTransient        // buck transient over 50 periods at 200 steps each, knob duty
	numKinds
)

// Knob grids: cold requests take vctl_dc = 1.2 + 0.005·k V or duty =
// 0.3 + 0.0025·k, k < coldGrid; the warm set sits between grid points, so no
// cold request is ever pre-solved.
const (
	coldGrid  = 161
	warmCount = 32
)

type mixReq struct {
	kind int
	knob string // vctl_dc or duty, as decimal text
}

func coldReq(kind, k int) mixReq {
	if kind == kindVCOTransient {
		return mixReq{kind, strconv.FormatFloat(1.2+0.005*float64(k), 'f', 3, 64)}
	}
	return mixReq{kind, strconv.FormatFloat(0.3+0.0025*float64(k), 'f', 4, 64)}
}

func warmReq(j int) mixReq {
	kind := j % numKinds
	if kind == kindVCOTransient {
		return mixReq{kind, strconv.FormatFloat(1.2025+0.025*float64(j), 'f', 4, 64)}
	}
	return mixReq{kind, strconv.FormatFloat(0.30125+0.0125*float64(j), 'f', 5, 64)}
}

// spell writes q as a request body. With rng nil it is the plain spelling;
// otherwise field order, number formats, separators, and whether defaults
// and a deadline are spelled out are drawn from rng. Every spelling of q
// canonicalizes to the same content hash.
func (q mixReq) spell(rng *rand.Rand) string {
	pick := func(alts ...string) string {
		if rng == nil {
			return alts[0]
		}
		return alts[rng.Intn(len(alts))]
	}
	maybe := func() bool { return rng != nil && rng.Intn(2) == 0 }
	v, _ := strconv.ParseFloat(q.knob, 64)
	knob := pick(q.knob, q.knob+"0", strconv.FormatFloat(v, 'e', -1, 64))
	fields := []string{}
	var opts []string
	switch q.kind {
	case kindVCOTransient:
		fields = append(fields, `"circuit":"paper-vco"`, `"vctl_dc":`+knob, `"analysis":"transient"`)
		opts = []string{`"tstop":` + pick("2e-5", "2e-05", "0.00002", "20e-6"), `"h":` + pick("1e-8", "1e-08", "0.00000001", "10e-9")}
	case kindBuckEnvelope:
		fields = append(fields, `"analysis":"envelope"`)
		opts = []string{`"tstop":` + pick("2e-4", "0.0002", "200e-6")}
		if maybe() {
			opts = append(opts, `"n1":33`)
		}
		if maybe() {
			opts = append(opts, `"steps":20`)
		}
	case kindBuckTransient:
		fields = append(fields, `"analysis":"transient"`)
		opts = []string{`"tstop":` + pick("5e-4", "0.0005", "500e-6"), `"h":` + pick("5e-8", "5e-08", "50e-9")}
	}
	if q.kind != kindVCOTransient {
		fields = append(fields, `"circuit":"buck-converter?duty=`+knob+`&fsw=`+pick("100000", "1e5", "100e3", "1e+05")+`"`)
	}
	fields = append(fields, `"options":{`+strings.Join(shuffled(rng, opts), ",")+`}`)
	if maybe() {
		fields = append(fields, `"deadline_ms":120000`)
	}
	return "{" + strings.Join(shuffled(rng, fields), pick(",", ", ", ",\n  ")) + "}"
}

func shuffled(rng *rand.Rand, s []string) []string {
	if rng != nil {
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	}
	return s
}

// hashOf is the content hash the server files body under.
func hashOf(body string) (string, error) {
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

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	url   string
	class string
	hc    *http.Client
	tr    *tracer
}

func newClient(url, class string, tr *tracer) *client {
	return &client{url: url, class: class, tr: tr, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   2 * time.Minute,
	}}
}

func (c *client) post(body, id string) (status int, xcache string, data []byte, lat time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, c.url+"/v1/simulate", strings.NewReader(body))
	if err != nil {
		return 0, "", nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(classHeader, c.class)
	var s *span
	if c.tr != nil {
		s = c.tr.begin("request", nil, id)
		s.Class = c.class
		req.Header.Set(reqHeader, id)
		req.Header.Set(parentHeader, strconv.FormatInt(s.ID, 10))
	}
	t := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat = time.Since(t)
	if s != nil {
		c.tr.finish(s)
	}
	if err != nil {
		return 0, "", nil, lat, err
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), data, lat, nil
}

// node is one booted server with its listeners: the plain handler, and in a
// traced run a second listener behind the span middleware.
type node struct {
	srv       *serve.Server
	listeners []*http.Server
	urls      []string
	served    sync.WaitGroup
}

func boot(tr *tracer) (*node, error) {
	cfg := serve.Config{Workers: 1, QueueCap: 4}
	handlers := []func(http.Handler) http.Handler{func(h http.Handler) http.Handler { return h }}
	if tr != nil {
		cfg.Engine = probedEngine{Engine: serve.CircuitEngine{}, tr: tr}
		handlers = append(handlers, tr.middleware)
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	n := &node{srv: srv}
	for _, wrap := range handlers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			n.close()
			return nil, err
		}
		hs := &http.Server{Handler: wrap(srv.Handler())}
		n.listeners = append(n.listeners, hs)
		n.urls = append(n.urls, "http://"+ln.Addr().String())
		n.served.Add(1)
		go func() {
			defer n.served.Done()
			hs.Serve(ln)
		}()
	}
	return n, nil
}

// close stops the listeners and the server and waits for all of them.
func (n *node) close() {
	for _, hs := range n.listeners {
		hs.Shutdown(context.Background())
	}
	n.served.Wait()
	n.srv.Close()
}

// url is the listener the measured traffic uses: the traced one when there
// is one.
func (n *node) url() string { return n.urls[len(n.urls)-1] }

// serverMetrics reads the server's /metrics counters.
func serverMetrics(url string) (map[string]int64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m, nil
}

// warmUp solves the first n requests of the warm set through a fresh
// client and returns the bodies and the MB allocated per request.
func warmUp(url string, n int, tr *tracer) ([][]byte, float64, error) {
	c := newClient(url, "warm", tr)
	defer c.hc.CloseIdleConnections()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc
	bodies := make([][]byte, n)
	for j := range bodies {
		status, _, data, _, err := c.post(warmReq(j).spell(nil), fmt.Sprintf("warm-%d", j))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, data)
		}
		if err == nil {
			err = finiteJSON(data)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("warm request %d: %w", j, err)
		}
		bodies[j] = data
	}
	runtime.ReadMemStats(&ms)
	return bodies, float64(ms.TotalAlloc-alloc) / 1e6 / float64(n), nil
}

// hotBody is one spelling of a warm request, with the bytes it must return.
type hotBody struct {
	body string
	want []byte
}

// coldBody is one cold request, with the request id its spans share.
type coldBody struct {
	q    mixReq
	body string
	id   string
}

// mixResult is what one client saw: the latencies (ms) of the replies that
// passed its checks, the cold replies by index, and the failures with the
// first error.
type mixResult struct {
	lat      []float64
	replies  map[int][]byte
	attempts int
	fails    int
	firstErr error
}

func (m *mixResult) fail(err error) {
	m.fails++
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// mix runs the cold client through its requests until they run out or the
// window has passed, with the hot client replaying until the cold one is
// done.
func mix(url string, cold []coldBody, hot []hotBody, window time.Duration, tr *tracer) (coldRes, hotRes *mixResult) {
	coldRes, hotRes = &mixResult{replies: map[int][]byte{}}, &mixResult{}
	cc, hc := newClient(url, "cold", tr), newClient(url, "hot", tr)
	defer cc.hc.CloseIdleConnections()
	defer hc.hc.CloseIdleConnections()
	deadline := time.Now().Add(window)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for i, c := range cold {
			if time.Now().After(deadline) {
				return
			}
			coldRes.attempts++
			status, _, data, lat, err := cc.post(c.body, c.id)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("cold request %d: status %d: %.200s", i, status, data)
			}
			if err == nil {
				err = finiteJSON(data)
			}
			if err != nil {
				coldRes.fail(err)
				continue
			}
			coldRes.lat = append(coldRes.lat, millis(lat))
			coldRes.replies[i] = data
		}
	}()
	go func() {
		defer wg.Done()
		replay(hc, hot, hotRes, done, tr != nil)
	}()
	wg.Wait()
	return coldRes, hotRes
}

// replay sends hot bodies in order, round and round, until stop closes, and
// checks every reply against the bytes its request was warmed with.
func replay(c *client, hot []hotBody, res *mixResult, stop <-chan struct{}, ids bool) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		h := hot[i%len(hot)]
		id := ""
		if ids {
			id = c.class + "-" + strconv.Itoa(i)
		}
		res.attempts++
		status, _, data, lat, err := c.post(h.body, id)
		if err == nil && (status != http.StatusOK || !bytes.Equal(data, h.want)) {
			err = fmt.Errorf("hot request %d: status %d, %d bytes differ from the warm reply", i, status, len(data))
		}
		if err != nil {
			res.fail(err)
			continue
		}
		res.lat = append(res.lat, millis(lat))
	}
}

// hotAlone replays hot bodies with no cold traffic for d and returns the
// latencies (ms).
func hotAlone(url string, hot []hotBody, tr *tracer, d time.Duration) []float64 {
	c := newClient(url, "alone", tr)
	defer c.hc.CloseIdleConnections()
	res := &mixResult{}
	stop := make(chan struct{})
	time.AfterFunc(d, func() { close(stop) })
	replay(c, hot, res, stop, tr != nil)
	return res.lat
}

func runServeMix(r *runner) error {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	rng := rand.New(rand.NewSource(r.seed))

	// Seeded cold order: a seeded knob permutation per kind, interleaved in
	// seeded triples so the kinds stay balanced over any prefix.
	perms := [numKinds][]int{rng.Perm(coldGrid), rng.Perm(coldGrid), rng.Perm(coldGrid)}
	var cold []coldBody
	for i := 0; i < coldGrid; i++ {
		for _, kind := range rng.Perm(numKinds) {
			q := coldReq(kind, perms[kind][i])
			body := q.spell(nil)
			hash, err := hashOf(body)
			if err != nil {
				return err
			}
			cold = append(cold, coldBody{q, body, coldID(hash)})
		}
	}
	nWarm := warmCount
	if r.small {
		cold, nWarm = cold[:6], 6
	}

	var n *node
	var warm [][]byte
	var allocs []float64
	setup := func() error {
		if n != nil {
			n.close()
		}
		var err error
		if n, err = boot(r.tr); err != nil {
			return err
		}
		bodies, mb, err := warmUp(n.url(), nWarm, r.tr)
		if err != nil {
			return err
		}
		for j := range warm {
			if !bytes.Equal(warm[j], bodies[j]) {
				return fmt.Errorf("warm request %d: a fresh server returned different bytes", j)
			}
		}
		warm = bodies
		allocs = append(allocs, mb)
		return nil
	}
	var err error
	if r.tr != nil {
		s := r.tr.begin("setup", nil, "")
		err = setup()
		r.tr.finish(s)
		r.op("setup", err)
	} else {
		err = r.setups(setup)
	}
	defer func() {
		if n != nil {
			n.close()
		}
	}()
	if err != nil {
		return err
	}

	hot := make([]hotBody, 16*nWarm)
	for i := range hot {
		j := rng.Intn(nWarm)
		hot[i] = hotBody{warmReq(j).spell(rng), warm[j]}
	}

	window := time.Duration(r.seconds * float64(time.Second))
	if r.tr != nil {
		// The traced run is for attribution, and every hot request leaves
		// spans, so it measures a shorter mix — after timing the hot path
		// alone on the plain listener and on the traced one.
		window = min(window, 4*time.Second)
		plain := hotAlone(n.urls[0], hot, nil, window/4)
		traced := hotAlone(n.url(), hot, r.tr, window/4)
		if len(plain) > 0 && len(traced) > 0 {
			r.record("trace.overhead", "ratio", median(traced)/median(plain)-1)
		}
	}

	before, err := serverMetrics(n.urls[0])
	if !r.op("metrics", err) {
		return err
	}
	start := time.Now()
	coldRes, hotRes := mix(n.url(), cold, hot, window, r.tr)
	elapsed := time.Since(start).Seconds()
	after, err := serverMetrics(n.urls[0])
	if !r.op("metrics", err) {
		return err
	}

	// Every cold reply, asked for again in another spelling, must now come
	// from the cache with the same bytes.
	verify := newClient(n.urls[0], "verify", nil)
	for i := range cold {
		data, ok := coldRes.replies[i]
		if !ok {
			continue
		}
		status, xcache, again, _, err := verify.post(cold[i].q.spell(rng), "")
		if err == nil && (status != http.StatusOK || xcache != "hit" || !bytes.Equal(again, data)) {
			err = fmt.Errorf("replay of cold request %d: status %d, X-Cache %q, same bytes %v",
				i, status, xcache, bytes.Equal(again, data))
		}
		r.op("replay", err)
	}
	verify.hc.CloseIdleConnections()

	for _, m := range []*mixResult{coldRes, hotRes} {
		r.attempted += m.attempts
		r.failed += m.fails
		if m.firstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: serve-mix: %d failed requests, first: %v\n", m.fails, m.firstErr)
		}
	}
	total := float64(coldRes.attempts + hotRes.attempts)
	if r.tr == nil {
		r.record("solve_ms", "ms", coldRes.lat...)
		r.record("baseline_ms", "ms", hotRes.lat...)
		r.record("alloc_mb", "MB", allocs...)
		r.record("cold_p95_ms", "ms", percentile(coldRes.lat, 0.95))
		r.record("hot_p99_ms", "ms", percentile(hotRes.lat, 0.99))
		r.record("throughput_rps", "1/s", total/elapsed)
		r.record("fail_frac", "ratio", float64(coldRes.fails+hotRes.fails)/total)
		return nil
	}

	r.record("serve.throughput_rps", "1/s", total/elapsed)
	delta := func(k string) float64 { return float64(after[k] - before[k]) }
	r.record("serve.hit_ratio", "ratio", delta("cache_hits")/delta("requests"))
	r.record("serve.coalesced", "count", delta("coalesced"))
	r.record("serve.rejected", "count", delta("rejected"))
	if solves := delta("solves"); solves > 0 {
		r.record("serve.build_ms", "ms", delta("build_ns")/solves/1e6)
		r.record("serve.ic_ms", "ms", delta("ic_ns")/solves/1e6)
		r.record("serve.solve_ms", "ms", delta("solve_ns")/solves/1e6)
		r.record("serve.encode_us", "us", delta("encode_ns")/solves/1e3)
	}
	r.record("par.workers", "count", float64(par.Workers()))
	// Spans are read once the server has stopped, so every engine and
	// handler span has finished.
	n.close()
	n = nil
	serveLayers(r)
	kernels(r, 25*4+1, 25)
	return nil
}

// serveLayers derives the serving layers' times from the mix's spans: the
// handler time of hot requests and the transport around it, and for cold
// requests the queue wait (engine start minus handler start) and engine time.
func serveLayers(r *runner) {
	handlers := map[string]*span{}
	var handlerUS []float64
	for _, s := range r.tr.named("handler") {
		handlers[s.Req] = s
		if s.Class == "hot" {
			handlerUS = append(handlerUS, s.seconds()*1e6)
		}
	}
	var httpUS []float64
	for _, s := range r.tr.named("request") {
		if h := handlers[s.Req]; h != nil && s.Class == "hot" {
			httpUS = append(httpUS, (s.seconds()-h.seconds())*1e6)
		}
	}
	var waitMS, engineMS []float64
	for _, s := range r.tr.named("engine") {
		if h := handlers[s.Req]; h != nil && h.Class == "cold" {
			waitMS = append(waitMS, float64(s.Start-h.Start)/1e6)
			engineMS = append(engineMS, s.seconds()*1e3)
		}
	}
	r.record("serve.handler_us_p50", "us", percentile(handlerUS, 0.5))
	r.record("serve.handler_us_p99", "us", percentile(handlerUS, 0.99))
	r.record("serve.http_us_p50", "us", percentile(httpUS, 0.5))
	r.record("serve.queue_wait_ms_p50", "ms", percentile(waitMS, 0.5))
	r.record("serve.queue_wait_ms_p95", "ms", percentile(waitMS, 0.95))
	r.record("serve.engine_ms_p50", "ms", percentile(engineMS, 0.5))
}
