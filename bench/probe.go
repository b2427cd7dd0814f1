package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dae"
	"repro/internal/la"
	"repro/internal/serve"
)

// The probes measure each layer from outside: they wrap the values the
// benchmark passes into the layers (the circuit system, the server's engine
// and handler) and record spans around the calls it makes. Only a traced run
// builds them; an untraced run hands the layers the bare values.

// circuitSystem is what the solver workloads pass to the solvers: a DAE with
// an oscillation variable and inputs on the two-time torus, as
// *circuit.System provides.
type circuitSystem interface {
	dae.Autonomous
	Input2(t1, t2 float64, u []float64)
}

// Client headers the serve-mix middleware keys on.
const (
	classHeader  = "X-Bench-Class"   // "hot" or "cold"
	reqHeader    = "X-Bench-Request" // request id shared by its spans
	parentHeader = "X-Bench-Parent"  // id of the client span that sent it
)

// span is one timed call at a layer boundary. Device evaluations are too
// many to record one by one (a transient makes more than 10^7), so each span
// carries the count and busy time of the evaluations made under it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Evals  int64  `json:"evals,omitempty"`
	EvalNS int64  `json:"eval_ns,omitempty"`
}

func (s *span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent *span, req string) *span {
	s := &span{Name: name, Req: req, Start: int64(time.Since(t.t0))}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (t *tracer) finish(s *span) { s.End = int64(time.Since(t.t0)) }

// named returns the finished spans called name, in start order.
func (t *tracer) named(name string) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*span
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		Spans    []*span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// evalTally counts device evaluations by kind, with their summed busy time.
type evalTally struct {
	q, f, jq, jf, busyNS atomic.Int64
}

func (a *evalTally) calls() int64 { return a.q.Load() + a.f.Load() + a.jq.Load() + a.jf.Load() }

// probedSystem counts and times every device evaluation of the system it
// wraps and charges it to the tally attached at the time. The solvers call it
// from their parallel workers, hence the atomics. OscVar, Input and Input2
// pass through by embedding.
type probedSystem struct {
	circuitSystem
	tally atomic.Pointer[evalTally]
}

func newProbedSystem(sys circuitSystem) *probedSystem {
	p := &probedSystem{circuitSystem: sys}
	p.tally.Store(new(evalTally))
	return p
}

// charge attaches a fresh tally and returns it: the evaluations made until
// the next charge are counted in it.
func (p *probedSystem) charge() *evalTally {
	a := new(evalTally)
	p.tally.Store(a)
	return a
}

// settle copies a tally into the span it was charged for.
func settle(s *span, a *evalTally) {
	s.Evals, s.EvalNS = a.calls(), a.busyNS.Load()
}

func (p *probedSystem) Q(x, q []float64) {
	t := time.Now()
	p.circuitSystem.Q(x, q)
	a := p.tally.Load()
	a.busyNS.Add(int64(time.Since(t)))
	a.q.Add(1)
}

func (p *probedSystem) F(x, u, f []float64) {
	t := time.Now()
	p.circuitSystem.F(x, u, f)
	a := p.tally.Load()
	a.busyNS.Add(int64(time.Since(t)))
	a.f.Add(1)
}

func (p *probedSystem) JQ(x []float64, j *la.Dense) {
	t := time.Now()
	p.circuitSystem.JQ(x, j)
	a := p.tally.Load()
	a.busyNS.Add(int64(time.Since(t)))
	a.jq.Add(1)
}

func (p *probedSystem) JF(x, u []float64, j *la.Dense) {
	t := time.Now()
	p.circuitSystem.JF(x, u, j)
	a := p.tally.Load()
	a.busyNS.Add(int64(time.Since(t)))
	a.jf.Add(1)
}

// probedEngine records an "engine" span around every solve the server's
// scheduler runs. The span's request id is the cold client's id for the
// content hash, which is how queue wait is joined to the handler span.
type probedEngine struct {
	serve.Engine
	tr *tracer
}

func (e probedEngine) Solve(ctx context.Context, c *serve.Canonical) (*serve.Outcome, serve.Stats, error) {
	s := e.tr.begin("engine", nil, coldID(c.Hash()))
	out, st, err := e.Engine.Solve(ctx, c)
	e.tr.finish(s)
	return out, st, err
}

// coldID is the request id of the cold request with this content hash.
func coldID(hash string) string { return "cold-" + hash[:16] }

// middleware records a "handler" span per request, classed by the client's
// X-Bench-Class header and parented to the client span that sent it.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := t.begin("handler", nil, r.Header.Get(reqHeader))
		s.Class = r.Header.Get(classHeader)
		s.Parent, _ = strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
		next.ServeHTTP(w, r)
		t.finish(s)
	})
}
