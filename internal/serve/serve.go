// Package serve is the simulation service subsystem: it turns the
// in-process analyses (envelope WaMPDE, quasiperiodic, transient, shooting,
// harmonic balance) into an HTTP job API suitable for the parameter-sweep
// workloads the MPDE literature motivates — many near-identical requests
// over netlist/tuning-voltage variants, which deduplication and caching
// turn from O(requests) into O(distinct solves).
//
// The pieces, each in its own file:
//
//   - request.go: the canonical request model. A request names a circuit
//     (inline netlist or a named paper circuit), an analysis kind and its
//     options; Canonicalize validates it, applies the engine defaults and
//     produces a deterministic canonical encoding whose SHA-256 is the
//     request's content address. Two requests that differ only in spelled-
//     out defaults hash identically, so the cache coheres across clients.
//   - scheduler.go: a bounded job scheduler — fixed worker budget layered
//     on internal/par, bounded queue, non-blocking admission. A saturated
//     queue rejects instead of queueing unboundedly (HTTP 429 with
//     Retry-After); each admitted job carries a deadline context that flows
//     into the solver cancellation path, so a killed request still returns
//     the partial result computed before the deadline.
//   - cache.go + flight.go: a single-flight, content-addressed result
//     cache. Duplicate in-flight requests coalesce onto one engine solve;
//     completed successes land in a byte-budgeted LRU. Cached and fresh
//     responses are bitwise identical (the engine's determinism guarantee,
//     pinned end to end by the repository's determinism tests).
//   - engine.go: the real engine adapter — builds the circuit, runs the
//     analysis under the job context, reports stage timings, and encodes
//     the outcome as deterministic JSON.
//   - errors.go: the error boundary mapping solverr kinds to HTTP statuses
//     (canceled→408, budget→422, bad input→400, exhausted-ladder solver
//     failures→500 carrying the recovery trail as structured JSON).
//   - metrics.go + server.go: expvar-style observability (queue depth,
//     admissions/rejections, cache hits, in-flight, per-stage solve
//     latencies), net/http/pprof behind a debug flag, and the HTTP surface
//     itself.
//   - sweepreq.go + sweep.go: the /v1/sweep batch surface — a whole
//     parameter sweep as one streaming NDJSON job, each point sharing the
//     single-solve content-addressed cache byte for byte, so an interrupted
//     sweep resumed with the client's received count gets the points solved
//     before the cut back from the cache tiers instead of re-solving them.
//   - store.go: the disk-backed second cache tier — an append-only segment
//     store of checksummed, length-prefixed records keyed by content hash,
//     reloaded into an index on boot with torn-tail detection, so solved
//     results survive restarts; a byte cap GCs whole cold segments when
//     the tier outgrows its budget.
//   - shard.go + cluster.go: cluster routing — consistent-hash ownership
//     of content hashes (order-independent, virtual nodes, R owners per
//     hash), bounded HTTP forwarding to the owners in ring order so
//     single-flight dedup is cluster-wide (bounded transport retries,
//     failover across replica owners, local-solve fallback when all are
//     down), and the boot-time prewarm pass that solves the named paper
//     circuits when absent (and, via /healthz readiness, self-checks the
//     disk tier after a restart).
//   - replicate.go: R-way write-through — every fresh solve is queued to
//     the hash's other owners over a bounded async queue and verified
//     (hash + CRC) before the receiver persists it, so any single node can
//     die without losing cached bytes.
//   - membership.go: dynamic membership — epoch-stamped views merged as a
//     semilattice, heartbeat gossip, and the -join path that admits a new
//     node through a seed without a coordinator.
//   - handoff.go: join-time rebalancing — the joiner streams exactly its
//     consistent-hash share out of the existing owners' disk stores as
//     CRC-framed records, verified per record before persisting.
//   - breaker.go: failure detection — a per-peer circuit breaker
//     (threshold/cooldown/half-open probe) plus capped, deterministically
//     jittered exponential backoff shared by the forwarding and
//     replication retry paths.
//
// cmd/wampde-server serves this package; cmd/wampde-load is the
// deterministic closed-loop load generator that benchmarks it (and, with
// -cluster, drives the self-healing cluster gates behind ./ci.sh cluster).
package serve
