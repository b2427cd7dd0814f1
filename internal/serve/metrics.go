package serve

import (
	"expvar"
	"sync/atomic"
)

// Metrics is the service's counter set. Counters are plain atomics rather
// than expvar variables so that tests can construct any number of servers
// without tripping expvar's duplicate-name panic; PublishExpvar exports one
// chosen instance process-wide (cmd/wampde-server does this once).
type Metrics struct {
	QueueDepth atomic.Int64 // tasks admitted but not yet started
	InFlight   atomic.Int64 // engine solves currently running
	Admitted   atomic.Int64 // jobs accepted by the scheduler
	Rejected   atomic.Int64 // jobs refused with ErrSaturated (HTTP 429)

	CacheHits      atomic.Int64 // responses served from the result cache
	CacheMisses    atomic.Int64 // cache lookups that missed
	CacheEvictions atomic.Int64 // LRU evictions under the byte budget
	Coalesced      atomic.Int64 // requests that joined an in-flight solve

	Requests  atomic.Int64 // requests reaching the simulate handler
	BadInput  atomic.Int64 // 400s (decode/validation failures)
	Canceled  atomic.Int64 // 408s (deadline exceeded)
	Failed    atomic.Int64 // 5xx engine failures
	Succeeded atomic.Int64 // 200s (fresh, cached, or coalesced)

	// Sweep-job accounting. Per-point counters classify how each planned
	// point was produced; a point served from the result cache or a joined
	// flight deliberately does not count toward the single-request
	// CacheHits/Coalesced columns (those measure /v1/simulate traffic).
	SweepRequests        atomic.Int64 // requests reaching the sweep handler
	SweepPoints          atomic.Int64 // points entering the per-point solve path
	SweepPointsSolved    atomic.Int64 // fresh engine solves
	SweepPointsCached    atomic.Int64 // served from the result cache
	SweepPointsCoalesced atomic.Int64 // joined an in-flight solve
	SweepPointsFailed    atomic.Int64 // error records streamed
	SweepCompleted       atomic.Int64 // sweeps that streamed their trailer clean
	SweepCanceled        atomic.Int64 // sweeps cut by deadline or client hangup

	// Cluster forwarding. Attempts count decisions to proxy a request to
	// its hash owner; OK means the owner answered (any status), Retries
	// count second attempts after a transport failure, and Fallbacks are
	// the degradation path — the owner stayed unreachable and the request
	// was solved locally instead. ForwardedIn counts requests this node
	// received as a hash owner from a peer.
	ForwardAttempts  atomic.Int64
	ForwardOK        atomic.Int64
	ForwardRetries   atomic.Int64
	ForwardFallbacks atomic.Int64
	ForwardedIn      atomic.Int64
	ForwardNS        atomic.Int64 // total wall time spent proxying (latency numerator)

	// Disk cache tier (the append-only segment store). DiskRecords and
	// DiskBytes are gauges of the indexed store contents; DiskDropped
	// counts corrupt or truncated records discarded at load or read time.
	DiskHits    atomic.Int64 // lookups served from disk (and promoted to memory)
	DiskPuts    atomic.Int64 // records appended
	DiskErrors  atomic.Int64 // failed appends (the solve still succeeds)
	DiskDropped atomic.Int64
	DiskRecords atomic.Int64
	DiskBytes   atomic.Int64

	// Replication write-through. Enqueued counts per-target pushes accepted
	// into the bounded queue, QueueFull the pushes dropped at a full queue,
	// Sent/Retries/Failed the delivery outcomes, and Received/Rejected/
	// Bytes the receiver side (Rejected = CRC or bounds failures, counted
	// on whichever side detected them). QueueDepth is the live gauge the
	// harness drains on (enqueued == sent + failed when empty).
	ReplEnqueued   atomic.Int64
	ReplQueueFull  atomic.Int64
	ReplQueueDepth atomic.Int64
	ReplSent       atomic.Int64
	ReplRetries    atomic.Int64
	ReplFailed     atomic.Int64
	ReplReceived   atomic.Int64
	ReplRejected   atomic.Int64
	ReplBytes      atomic.Int64

	// Membership. Epoch/Nodes are gauges of the current view; Joins counts
	// join requests this node admitted as a seed, Merges the times a
	// received view changed the local one, Heartbeats/HeartbeatMisses the
	// exchange attempts and their transport failures (misses also count
	// failed join and handoff exchanges).
	MemberEpoch           atomic.Int64
	MemberNodes           atomic.Int64
	MemberJoins           atomic.Int64
	MemberMerges          atomic.Int64
	MemberHeartbeats      atomic.Int64
	MemberHeartbeatMisses atomic.Int64

	// Per-peer circuit breakers. Opens counts closed/half-open → open
	// transitions, ShortCircuits the requests skipped while open, Probes
	// the half-open trial requests, Closes the recoveries.
	BreakerOpens         atomic.Int64
	BreakerShortCircuits atomic.Int64
	BreakerProbes        atomic.Int64
	BreakerCloses        atomic.Int64

	// Join handoff. Pulls counts handoff requests served (sender side);
	// KeysSent/Bytes what this node streamed out; KeysReceived the distinct
	// records this node applied from pulls (duplicates already present are
	// not counted, so the gauge equals the moved-key share); Rejected the
	// records that failed CRC or bounds on receipt.
	HandoffPulls        atomic.Int64
	HandoffKeysSent     atomic.Int64
	HandoffKeysReceived atomic.Int64
	HandoffRejected     atomic.Int64
	HandoffBytes        atomic.Int64

	// Disk-tier segment GC under the byte cap: runs (Put-triggered GC
	// passes that evicted at least one segment), segments/records evicted,
	// and file bytes reclaimed.
	DiskGCRuns     atomic.Int64
	DiskGCSegments atomic.Int64
	DiskGCRecords  atomic.Int64
	DiskGCBytes    atomic.Int64

	// Boot-time prewarm accounting: entries solved fresh vs found already
	// present in a cache tier (after a restart onto a warm disk store, the
	// whole set skips).
	PrewarmSolved  atomic.Int64
	PrewarmSkipped atomic.Int64

	// Per-stage solve time, nanoseconds, accumulated over fresh solves:
	// build (circuit construction), ic (DC + settle + shooting initial
	// condition), solve (the analysis proper), encode (response encoding).
	BuildNS  atomic.Int64
	ICNS     atomic.Int64
	SolveNS  atomic.Int64
	EncodeNS atomic.Int64
	Solves   atomic.Int64 // fresh engine solves (latency denominators)
}

// NewMetrics returns a zeroed counter set.
func NewMetrics() *Metrics { return &Metrics{} }

// Snapshot returns the counters as a plain map, the payload of the
// /metrics endpoint. Reads are individually atomic (the set is not a
// consistent cut, which is fine for monitoring).
func (m *Metrics) Snapshot() map[string]int64 {
	return map[string]int64{
		"queue_depth":             m.QueueDepth.Load(),
		"in_flight":               m.InFlight.Load(),
		"admitted":                m.Admitted.Load(),
		"rejected":                m.Rejected.Load(),
		"cache_hits":              m.CacheHits.Load(),
		"cache_misses":            m.CacheMisses.Load(),
		"cache_evictions":         m.CacheEvictions.Load(),
		"coalesced":               m.Coalesced.Load(),
		"requests":                m.Requests.Load(),
		"bad_input":               m.BadInput.Load(),
		"canceled":                m.Canceled.Load(),
		"failed":                  m.Failed.Load(),
		"succeeded":               m.Succeeded.Load(),
		"sweep_requests":          m.SweepRequests.Load(),
		"sweep_points":            m.SweepPoints.Load(),
		"sweep_points_solved":     m.SweepPointsSolved.Load(),
		"sweep_points_cached":     m.SweepPointsCached.Load(),
		"sweep_points_coalesced":  m.SweepPointsCoalesced.Load(),
		"sweep_points_failed":     m.SweepPointsFailed.Load(),
		"sweep_completed":         m.SweepCompleted.Load(),
		"sweep_canceled":          m.SweepCanceled.Load(),
		"forward_attempts":        m.ForwardAttempts.Load(),
		"forward_ok":              m.ForwardOK.Load(),
		"forward_retries":         m.ForwardRetries.Load(),
		"forward_fallbacks":       m.ForwardFallbacks.Load(),
		"forwarded_in":            m.ForwardedIn.Load(),
		"forward_ns":              m.ForwardNS.Load(),
		"repl_enqueued":           m.ReplEnqueued.Load(),
		"repl_queue_full":         m.ReplQueueFull.Load(),
		"repl_queue_depth":        m.ReplQueueDepth.Load(),
		"repl_sent":               m.ReplSent.Load(),
		"repl_retries":            m.ReplRetries.Load(),
		"repl_failed":             m.ReplFailed.Load(),
		"repl_received":           m.ReplReceived.Load(),
		"repl_rejected":           m.ReplRejected.Load(),
		"repl_bytes":              m.ReplBytes.Load(),
		"member_epoch":            m.MemberEpoch.Load(),
		"member_nodes":            m.MemberNodes.Load(),
		"member_joins":            m.MemberJoins.Load(),
		"member_merges":           m.MemberMerges.Load(),
		"member_heartbeats":       m.MemberHeartbeats.Load(),
		"member_heartbeat_misses": m.MemberHeartbeatMisses.Load(),
		"breaker_opens":           m.BreakerOpens.Load(),
		"breaker_short_circuits":  m.BreakerShortCircuits.Load(),
		"breaker_probes":          m.BreakerProbes.Load(),
		"breaker_closes":          m.BreakerCloses.Load(),
		"handoff_pulls":           m.HandoffPulls.Load(),
		"handoff_keys_sent":       m.HandoffKeysSent.Load(),
		"handoff_keys_received":   m.HandoffKeysReceived.Load(),
		"handoff_rejected":        m.HandoffRejected.Load(),
		"handoff_bytes":           m.HandoffBytes.Load(),
		"disk_gc_runs":            m.DiskGCRuns.Load(),
		"disk_gc_segments":        m.DiskGCSegments.Load(),
		"disk_gc_records":         m.DiskGCRecords.Load(),
		"disk_gc_bytes":           m.DiskGCBytes.Load(),
		"disk_hits":               m.DiskHits.Load(),
		"disk_puts":               m.DiskPuts.Load(),
		"disk_errors":             m.DiskErrors.Load(),
		"disk_dropped":            m.DiskDropped.Load(),
		"disk_records":            m.DiskRecords.Load(),
		"disk_bytes":              m.DiskBytes.Load(),
		"prewarm_solved":          m.PrewarmSolved.Load(),
		"prewarm_skipped":         m.PrewarmSkipped.Load(),
		"build_ns":                m.BuildNS.Load(),
		"ic_ns":                   m.ICNS.Load(),
		"solve_ns":                m.SolveNS.Load(),
		"encode_ns":               m.EncodeNS.Load(),
		"solves":                  m.Solves.Load(),
	}
}

// PublishExpvar exports this counter set under the expvar name
// "wampde_serve". expvar panics on duplicate names, so call this at most
// once per process (cmd/wampde-server guards it with sync.Once; tests use
// the per-server /metrics endpoint instead).
func (m *Metrics) PublishExpvar() {
	expvar.Publish("wampde_serve", expvar.Func(func() any { return m.Snapshot() }))
}
