package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Config sizes one Server.
type Config struct {
	// Workers is the engine-solve concurrency budget (default 2). Each
	// worker runs one solve at a time; the solver's internal data
	// parallelism (internal/par) multiplies on top.
	Workers int
	// QueueCap bounds the admission queue (default 2·Workers). A full queue
	// rejects with 429 + Retry-After rather than queueing unboundedly.
	QueueCap int
	// CacheBytes budgets the memory cache tier. 0 means the default,
	// 32 MiB; a negative budget disables the tier but keeps single-flight
	// coalescing.
	CacheBytes int64
	// MaxBodyBytes caps the request body (default 128 KiB).
	MaxBodyBytes int64
	// DefaultDeadline bounds jobs whose request carries no deadline_ms
	// (default 2 minutes).
	DefaultDeadline time.Duration
	// Debug mounts net/http/pprof and expvar under /debug/.
	Debug bool
	// StoreDir, when non-empty, enables the disk-backed second cache tier:
	// an append-only segment store of solved bodies under this directory,
	// loaded into the index on boot (see store.go). A memory-cache miss
	// falls through to disk before solving, and every fresh success is
	// appended, so solved hashes survive restarts.
	StoreDir string
	// StoreSegmentBytes is the segment roll threshold (default 64 MiB).
	StoreSegmentBytes int64
	// StoreMaxBytes caps the disk tier's total segment bytes (0 =
	// unbounded). When an append pushes past the cap, whole cold segments
	// are garbage-collected least-recently-accessed first (see store.go).
	StoreMaxBytes int64
	// Prewarm solves the named paper circuits (prewarmSet) in the
	// background on startup when absent from the cache tiers; /healthz
	// reports ready:false until the pass completes.
	Prewarm bool
	// Cluster, when non-nil, wires this node into a static peer cluster
	// with consistent-hash ownership of content hashes (see cluster.go).
	Cluster *ClusterConfig
	// Engine overrides the solve engine (tests); nil means CircuitEngine.
	Engine Engine
	// Metrics, when non-nil, is the counter set to use (lets a cmd publish
	// the same instance via expvar); nil allocates a fresh set.
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueCap == 0 {
		c.QueueCap = 2 * c.Workers
	}
	if c.QueueCap < 0 {
		c.QueueCap = 0
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 32 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 128 << 10
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.Engine == nil {
		c.Engine = CircuitEngine{}
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics()
	}
	return c
}

// Response is the success body: the canonical request hash (the cache
// address, which clients can use to correlate sweeps) plus the outcome.
type Response struct {
	Hash string `json:"hash"`
	*Outcome
}

// Server is the simulation service: scheduler + single-flight cache +
// engine behind an http.Handler. In cluster mode it additionally routes
// each content hash to its consistent-hash owner, and with a store
// configured it persists every solved body to the disk tier.
type Server struct {
	cfg         Config
	sched       *Scheduler
	cache       *Cache
	store       *Store      // nil without StoreDir
	member      *membership // nil outside cluster mode
	self        string
	replication int // R, owners per hash (cluster mode)
	fwd         *forwarder
	repl        *replicator // nil unless replication > 1
	breakers    *breakerSet
	flights     *flightGroup
	m           *Metrics
	mux         *http.ServeMux

	hbKick        chan struct{} // heartbeat wake-up (nil without a loop)
	joinDone      atomic.Bool
	clusterCancel context.CancelFunc
	clusterWG     sync.WaitGroup
	closed        atomic.Bool

	prewarmDone   atomic.Bool
	prewarmCancel context.CancelFunc
	prewarmWG     sync.WaitGroup
}

// ring returns the current hash ring (nil outside cluster mode). The ring
// is rebuilt atomically on membership change; one request observes one
// consistent ring.
func (s *Server) ring() *Ring {
	if s.member == nil {
		return nil
	}
	return s.member.ring.Load()
}

// NewServer builds a Server and starts its worker pool (and, when
// configured, opens the disk store, joins the cluster ring, and launches
// the prewarm pass). Close releases it.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		m:       cfg.Metrics,
		flights: newFlightGroup(cfg.Metrics),
		cache:   NewCache(cfg.CacheBytes, cfg.Metrics),
	}
	if cfg.StoreDir != "" {
		store, err := OpenStore(cfg.StoreDir, cfg.StoreSegmentBytes, cfg.StoreMaxBytes, cfg.Metrics)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	s.joinDone.Store(true)
	if cc := cfg.Cluster; cc != nil {
		if cc.Self == "" {
			return nil, fmt.Errorf("serve: cluster config needs Self")
		}
		if err := validateNodeAddr(cc.Self); err != nil {
			return nil, err
		}
		s.self = cc.Self
		s.replication = cc.Replication
		if s.replication <= 0 {
			s.replication = 2
		}
		s.breakers = newBreakerSet(cc.BreakerThreshold, cc.BreakerCooldown, cfg.Metrics)
		seed := cc.BackoffSeed
		if seed == 0 {
			seed = 1
		}
		bo := newBackoff(cc.BackoffBase, cc.BackoffMax, seed)
		timeout := cc.ForwardTimeout
		if timeout <= 0 {
			timeout = cfg.DefaultDeadline + 15*time.Second
		}
		s.fwd = newForwarder(timeout, cc.ForwardAttempts, bo, s.breakers, cfg.Metrics)
		// Join mode starts from a self-only view and asks the seeds to
		// admit it; static mode boots epoch 1 directly from the peer list.
		boot := cc.Peers
		if cc.Join {
			boot = nil
		}
		s.member = newMembership(cc.Self, boot, cc.Replicas, cfg.Metrics)
		if s.replication > 1 {
			s.repl = newReplicator(s, cc.ReplQueueCap, bo)
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.clusterCancel = cancel
		if cc.HeartbeatInterval > 0 {
			s.hbKick = make(chan struct{}, 1)
			s.clusterWG.Add(1)
			go s.heartbeatLoop(ctx, cc.HeartbeatInterval, s.hbKick)
		}
		if cc.Join {
			s.joinDone.Store(false)
			s.clusterWG.Add(1)
			go s.join(ctx, cc.Peers)
		}
	}
	s.sched = NewScheduler(cfg.Workers, cfg.QueueCap, cfg.Metrics)
	s.prewarmDone.Store(true)
	if cfg.Prewarm {
		s.prewarmDone.Store(false)
		ctx, cancel := context.WithCancel(context.Background())
		s.prewarmCancel = cancel
		s.prewarmWG.Add(1)
		go s.prewarm(ctx)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.member != nil {
		s.mux.HandleFunc("POST /v1/cluster/join", s.handleJoin)
		s.mux.HandleFunc("POST /v1/cluster/heartbeat", s.handleHeartbeat)
		s.mux.HandleFunc("GET /v1/cluster/handoff", s.handleHandoff)
		s.mux.HandleFunc("POST /v1/cluster/replicate", s.handleReplicate)
	}
	if cfg.Debug {
		s.mux.Handle("GET /debug/vars", expvar.Handler())
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's counter set.
func (s *Server) Metrics() *Metrics { return s.m }

// Close stops the prewarm pass and the cluster loops (heartbeat, join,
// replication — queued replication pushes drain first), drains the
// scheduler (running jobs finish; admission stops), and closes the disk
// store. Idempotent: a second Close is a no-op.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	if s.prewarmCancel != nil {
		s.prewarmCancel()
	}
	s.prewarmWG.Wait()
	if s.clusterCancel != nil {
		s.clusterCancel()
	}
	s.clusterWG.Wait()
	if s.repl != nil {
		s.repl.close()
	}
	s.sched.Close()
	if s.store != nil {
		s.store.Close()
	}
}

// handleHealthz reports liveness plus boot readiness: ready flips to true
// once the prewarm pass (when configured) has completed and — for a
// joining node — once the join handshake and handoff pull have finished,
// which is what CI harnesses wait on before measuring solve accounting.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	body := map[string]any{"ok": true, "ready": s.prewarmDone.Load() && s.joinDone.Load()}
	if s.member != nil {
		v := s.member.view()
		body["node"] = s.self
		body["cluster_nodes"] = len(v.Nodes)
		body["cluster_epoch"] = v.Epoch
	}
	json.NewEncoder(w).Encode(body)
}

// lookup consults the cache tiers for hash: memory first, then the disk
// store. A disk hit is promoted into the memory LRU and reported with its
// own X-Cache marker so harnesses can see the tier that answered.
func (s *Server) lookup(hash string) (body []byte, source string) {
	if body := s.cache.Get(hash); body != nil {
		return body, "hit"
	}
	if s.store == nil {
		return nil, ""
	}
	body = s.store.Get(hash)
	if body == nil {
		return nil, ""
	}
	s.m.DiskHits.Add(1)
	s.cache.Put(hash, body)
	return body, "hit-disk"
}

// persist records a solved body in both cache tiers. Disk append failures
// are counted but do not fail the solve — the memory tier still serves it.
func (s *Server) persist(hash string, body []byte) {
	s.cache.Put(hash, body)
	if s.store != nil {
		if err := s.store.Put(hash, body); err != nil {
			s.m.DiskErrors.Add(1)
		}
	}
}

// lead is a flight leader's solve, shared by /v1/simulate and sweep points:
// run the engine, persist a 200 in both cache tiers and write it through to
// the other owners of its hash (so a fresh solve lands on all R owners no
// matter which node computed it), then complete the flight. The cache insert
// comes before completion so a request arriving after the flight retires
// cannot slip between flight and cache.
func (s *Server) lead(ctx context.Context, hash string, f *flight, c *Canonical) (int, []byte) {
	status, body := s.runJob(ctx, hash, c)
	if status == http.StatusOK {
		s.persist(hash, body)
		if s.repl != nil {
			var others []string
			for _, o := range s.ring().Owners(hash, s.replication) {
				if o != s.self {
					others = append(others, o)
				}
			}
			s.repl.enqueue(hash, body, others)
		}
	}
	s.flights.complete(hash, f, flightResult{status: status, body: body})
	return status, body
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.m.Snapshot())
}

// handleSimulate is the job endpoint. The flow is: decode → canonicalize →
// cache tiers (memory, then disk) → cluster routing (forward to the hash
// owner unless this node owns it or the request already arrived forwarded)
// → single-flight join → (leader only) schedule the solve under the job
// deadline → everyone waits for the flight's result and replays the exact
// same bytes. Forwarding keeps single-flight dedup global: every node sends
// a given hash to its one owner, whose flight group coalesces cluster-wide.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.m.Requests.Add(1)
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, badInput("reading request body: %v", err))
		return
	}
	req, err := DecodeRequest(bytes.NewReader(raw))
	if err != nil {
		s.writeError(w, err)
		return
	}
	c, err := req.Canonicalize()
	if err != nil {
		s.writeError(w, err)
		return
	}
	hash := c.Hash()
	forwarded := r.Header.Get(forwardHeader) != ""
	if forwarded {
		s.m.ForwardedIn.Add(1)
	}

	if body, source := s.lookup(hash); body != nil {
		s.m.Succeeded.Add(1)
		writeResult(w, http.StatusOK, body, source)
		return
	}

	// Cluster routing: a hash whose primary owner is another node goes to
	// its owners, in ring order (the raw body is relayed verbatim, so the
	// receiver canonicalizes to the same hash). Only the primary solves
	// un-forwarded traffic — a secondary owner that misses its cache
	// forwards to the primary like any other node, so the primary's
	// single-flight group stays the one dedup point while the replicas
	// serve reads the moment the write-through lands. A request that
	// arrived forwarded is solved here no matter what the local ring says —
	// the sender made the routing decision, and never re-forwarding is what
	// makes routing loops impossible.
	if ring := s.ring(); ring != nil && !forwarded {
		if owners := ring.Owners(hash, s.replication); len(owners) > 0 && owners[0] != s.self {
			// Forward to the owners other than this node (a secondary that
			// reaches here already missed its local tiers).
			targets := make([]string, 0, len(owners))
			for _, o := range owners {
				if o != s.self {
					targets = append(targets, o)
				}
			}
			status, xcache, body, origin, ferr := s.fwd.simulate(r.Context(), targets, raw)
			if ferr == nil {
				if status == http.StatusOK {
					// Edge-cache the answering owner's exact bytes so repeats
					// served by this node hit memory without another hop.
					s.cache.Put(hash, body)
				}
				s.countStatus(status)
				w.Header().Set(originHeader, origin)
				writeResult(w, status, body, xcache)
				return
			}
			// Every owner unreachable after retries: degrade to a local
			// solve rather than failing the request. Dedup is per-node until
			// an owner comes back, which is the documented trade.
			s.m.ForwardFallbacks.Add(1)
		}
	}

	f, leader := s.flights.join(hash)
	xcache := "coalesced"
	if leader {
		xcache = "miss"
		s.launch(hash, f, req, c)
	}

	<-f.done
	s.countStatus(f.res.status)
	writeResult(w, f.res.status, f.res.body, xcache)
}

// launch schedules the leader's solve and guarantees the flight completes
// on every path (admission rejection included), so followers never hang.
func (s *Server) launch(hash string, f *flight, req *Request, c *Canonical) {
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	// The deadline clock starts at admission: queue wait spends the same
	// budget the solve does, which is what a caller's wall-clock deadline
	// means.
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	err := s.sched.Submit(ctx, func(ctx context.Context) {
		defer cancel()
		s.lead(ctx, hash, f, c)
	})
	if err != nil {
		cancel()
		status := http.StatusServiceUnavailable
		if err == ErrSaturated {
			status = http.StatusTooManyRequests
		}
		s.flights.complete(hash, f, flightResult{
			status: status,
			body:   mustJSON(ErrorBody{Error: err.Error(), Kind: "saturated"}),
		})
	}
}

// runJob runs the engine and encodes the response exactly once; the
// returned bytes are what every coalesced caller and every future cache hit
// will see.
func (s *Server) runJob(ctx context.Context, hash string, c *Canonical) (int, []byte) {
	out, st, err := s.cfg.Engine.Solve(ctx, c)
	s.m.BuildNS.Add(st.BuildNS)
	s.m.ICNS.Add(st.ICNS)
	s.m.SolveNS.Add(st.SolveNS)
	s.m.Solves.Add(1)
	if err != nil {
		var partial json.RawMessage
		var sup map[string]int
		if out != nil {
			partial = mustJSON(Response{Hash: hash, Outcome: out})
			sup = out.Supervision
		}
		return errorResponse(err, partial, sup)
	}
	t0 := time.Now()
	body := mustJSON(Response{Hash: hash, Outcome: out})
	s.m.EncodeNS.Add(time.Since(t0).Nanoseconds())
	return http.StatusOK, body
}

// countStatus attributes a finished flight's status to the outcome
// counters. Every waiter counts (a coalesced 200 is still a served 200);
// 429s are already counted at rejection time.
func (s *Server) countStatus(status int) {
	switch {
	case status == http.StatusOK:
		s.m.Succeeded.Add(1)
	case status == http.StatusBadRequest:
		s.m.BadInput.Add(1)
	case status == http.StatusRequestTimeout:
		s.m.Canceled.Add(1)
	case status >= 500:
		s.m.Failed.Add(1)
	}
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, body := errorResponse(err, nil, nil)
	if status == http.StatusBadRequest {
		s.m.BadInput.Add(1)
	} else {
		s.countStatus(status)
	}
	writeResult(w, status, body, "")
}

func writeResult(w http.ResponseWriter, status int, body []byte, xcache string) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if xcache != "" {
		h.Set("X-Cache", xcache)
	}
	if status == http.StatusTooManyRequests {
		h.Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	w.Write(body)
}
