#!/bin/sh
# Repository check tiers, in increasing cost:
#
#   tier 1      build + full test suite (the gate every change must pass);
#               the build includes the bench/ module, its own Go module
#               that the root's ./... never reaches although it imports ten
#               internal packages, so a change to an API it reads fails here
#   tier 2      gofmt (fails when gofmt -l lists any file), vet + race
#               detector over the suite (-short skips the longest solver
#               runs; the three pooled kernels — dense LU trailing
#               updates, which dispatch only with >= 256 trailing rows,
#               the quasiperiodic fillLines and block-Jacobi factor/apply —
#               execute under the race detector at 2 and 8 workers via
#               TestFactorIntoWorkerCountInvariant (n = 289),
#               TestQuasiperiodicMatrixFreeMatchesDense (414 unknowns) and
#               the determinism tests (305 unknowns)), then vet + tests of
#               the bench/ module, which is its own Go module and so
#               invisible to the root's ./... although it imports
#               internal/serve, core and mpde
#   fault       fault-injection tier: the armed suite (TestFault*) under the
#               race detector, without -short so the armed golden-tolerance
#               Figure-7 runs execute too. Proves every escalation rung fires
#               against injected failures (see DESIGN.md, Failure semantics)
#               while the race detector watches the supervised paths.
#   bench-check the five hot-loop benchmarks with allocation budgets
#               (Fig07VCOEnvelopeVacuum, AblationChordNewton, HotLoopAllocs,
#               GMRESAllocs, QuasiperiodicWaMPDE; see allocGate in
#               gates_test.go): each fails when its allocs/op over the timed
#               loop exceeds its budget; go test's exit status is the
#               verdict. Counts are not timings: only the pooled
#               QuasiperiodicWaMPDE's moves with GOMAXPROCS, and by one
#               object, the LU workspace's pooled kernel, since the pool's
#               helpers live for the process (1,183 allocs/op at 1, 1,184 to
#               1,189 at 2 to 8, against its budget of 1,214).
#   ring-bench-check N-stage ring-VCO scaling sweep: BenchmarkRingScaling
#               (envelope-following, stages 3..31) and BenchmarkQPRingScaling
#               (global quasiperiodic solve, stages 3..15), dense bordered
#               Jacobian vs the matrix-free spectral operator in both. Each
#               family gates its own run (ringGate in gates_test.go):
#               matrix-free >= 3x dense at its first stage count >= 15 and
#               never slower above it. A within-run ratio, so timing offsets
#               between machines cancel, but the margin does not: the
#               15-stage envelope reads 2.0-3.4x on a 2-vCPU VM and mostly
#               fails there (the ROADMAP's preconditioner item owns it). About
#               40 s on that VM, dense factorizations dominating. Not part
#               of "all", being a timing gate that small machines fail.
#   serve       service smoke tier: builds wampde-server and wampde-load with
#               the race detector, boots the server on a free port with a
#               deliberately small worker/queue budget, and runs the load
#               harness with -check — the seeded 64-request mix (≥87%
#               cache/single-flight hit rate, zero 5xx, bitwise-identical
#               replays), one deadline-exceeded request (408 + partial) and
#               a saturating burst (≥1 admission rejection).
#   sweep       batch-endpoint tier, two passes of the load harness -sweep
#               -check. First a race-built server runs the correctness
#               gates: cache dedup between /v1/sweep points and single
#               solves (byte-identical both directions) and kill+resume
#               (the resumed stream emits exactly the missing points, the
#               ones solved before the kill from the cache, and the server
#               re-solves at most the one point that was in flight). Then a plain build runs the amortization gate — a
#               200-point vctl sweep at ≤ 0.5× the wall-clock of the same
#               number of independent cold solves — because the race
#               runtime serializes the lanes and would distort the ratio.
#   cluster     self-healing cluster tier: race-builds wampde-server and
#               wampde-load, boots three nodes on free ports (-addr-file +
#               @file peer resolution) with disk stores, prewarm, R=2
#               replication, heartbeats and a seeded backoff, then drives
#               the join/leave/kill choreography: mix (every request posted
#               to every node twice — bitwise-identical bodies from all
#               nodes, exactly one engine solve per distinct hash
#               cluster-wide, every fresh solve written through to its
#               replica owner with zero failures), warm restart of node 1
#               (replays byte-identical with zero engine solves anywhere;
#               its prewarm came back from its disk store), a node joining
#               mid-traffic (background replay keeps flowing while node 4
#               boots with -join; the joiner must stream in exactly its
#               consistent-hash share — handoff counters checked against
#               the harness's own ring math, within the rebalance bound
#               pinned in shard_test.go), then killing node 3 outright
#               (every body the cluster ever served still comes back 200
#               and byte-identical from the survivors with zero re-solves
#               and zero 5xx — replication lost nothing), and finally the
#               breaker gate (fresh dead-owner requests all answer 200
#               while breaker_opens/short_circuits fire and the jittered
#               backoff retries run; the exact counter choreography is
#               pinned in-process by breaker_test.go/forward_test.go).
#   converter   switch-mode converter workload tier: the converter goldens
#               (PWM/switch/diode device tests, generator tests, the
#               transient-vs-MPDE ripple agreement gate, the serve catalog
#               and cached-replay tests) plus the end-to-end duty-sweep
#               smoke over HTTP, then one pass of BenchmarkConverterRipple
#               (MPDE ripple envelope vs brute-force transient under slow
#               duty modulation), which fails when the mpde mode is slower
#               than the transient (converterGate in gates_test.go). A
#               within-run ratio like ring-bench-check's.
#
# Run ./ci.sh for every tier in "all" (1, 2, fault, serve, sweep, cluster,
# converter), or ./ci.sh TIER for one; bench-check and ring-bench-check run
# only by name. An unknown tier fails and lists the valid ones.
set -eu
cd "$(dirname "$0")"

tier="${1:-all}"
tiers="all 1 2 fault bench-check ring-bench-check serve sweep cluster converter"
case " $tiers " in
*" $tier "*) ;;
*)
	echo "ci: unknown tier '$tier'; valid tiers: $tiers" >&2
	exit 2
	;;
esac

if [ "$tier" = 1 ] || [ "$tier" = all ]; then
	echo "== tier 1: build + tests"
	go build ./...
	(cd bench && go build -o /dev/null .)
	go test ./...
fi

if [ "$tier" = 2 ] || [ "$tier" = all ]; then
	echo "== tier 2: gofmt + vet + race detector"
	unformatted="$(gofmt -l .)"
	if [ -n "$unformatted" ]; then
		echo "ci: unformatted files:" >&2
		echo "$unformatted" >&2
		exit 1
	fi
	go vet ./...
	go test -race -short ./...
	(cd bench && go vet . && go test .)
fi

if [ "$tier" = fault ] || [ "$tier" = all ]; then
	echo "== fault: armed fault-injection suite under the race detector"
	go test -race -run 'TestFault' ./...
fi

run_serve() {
	tmp="$(mktemp -d)"
	trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
	go build -race -o "$tmp/wampde-server" ./cmd/wampde-server
	go build -race -o "$tmp/wampde-load" ./cmd/wampde-load
	"$tmp/wampde-server" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
		-workers 2 -queue 2 -solver-workers 2 &
	server_pid=$!
	i=0
	while [ ! -s "$tmp/addr" ]; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "ci: server did not start" >&2; exit 1; }
		sleep 0.1
	done
	url="http://$(cat "$tmp/addr")"
	"$tmp/wampde-load" -url "$url" -check
	kill "$server_pid" 2>/dev/null || true
	wait "$server_pid" 2>/dev/null || true
	trap - EXIT
	rm -rf "$tmp"
}

if [ "$tier" = serve ] || [ "$tier" = all ]; then
	echo "== serve: HTTP service smoke (server + load harness, race detector)"
	run_serve
fi

# One pass of the sweep harness against a freshly booted server. The server
# gets one worker per lane (-workers 4) and a single-threaded solver per
# worker, so the amortization measurement is lane parallelism rather than
# intra-solve parallelism fighting over cores.
#   $1: extra go build flags ("-race" or "")
#   $2...: extra wampde-load flags
run_sweep_pass() {
	buildflags="$1"
	shift
	tmp="$(mktemp -d)"
	trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
	# shellcheck disable=SC2086 # buildflags is deliberately word-split
	go build $buildflags -o "$tmp/wampde-server" ./cmd/wampde-server
	go build $buildflags -o "$tmp/wampde-load" ./cmd/wampde-load
	"$tmp/wampde-server" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
		-workers 4 -queue 8 -solver-workers 1 &
	server_pid=$!
	i=0
	while [ ! -s "$tmp/addr" ]; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "ci: server did not start" >&2; exit 1; }
		sleep 0.1
	done
	url="http://$(cat "$tmp/addr")"
	"$tmp/wampde-load" -url "$url" -requests 0 -burst 0 -deadline-ms 0 \
		-sweep -check "$@"
	kill "$server_pid" 2>/dev/null || true
	wait "$server_pid" 2>/dev/null || true
	trap - EXIT
	rm -rf "$tmp"
}

if [ "$tier" = sweep ] || [ "$tier" = all ]; then
	echo "== sweep: correctness gates under race (dedup, resume)"
	run_sweep_pass -race -sweep-gate 0
	echo "== sweep: amortization gate against a plain build"
	run_sweep_pass ""
fi

# One full pass of the self-healing cluster story: 3 nodes with R=2
# replication and heartbeats, a warm restart, a mid-traffic join with
# segment-streamed handoff, a kill with the zero-loss gate, and the breaker
# choreography against the dead node. Node logs land in $WAMPDE_LOG_DIR when
# set (CI uploads them on failure), else in the temp dir.
#   $1: go build flags ("-race" or "")
run_cluster() {
	buildflags="$1"
	tmp="$(mktemp -d)"
	logdir="${WAMPDE_LOG_DIR:-$tmp}"
	mkdir -p "$logdir"
	trap 'for p in "$tmp"/pid*; do kill "$(cat "$p")" 2>/dev/null || true; done; rm -rf "$tmp"' EXIT
	# shellcheck disable=SC2086 # buildflags is deliberately word-split
	go build $buildflags -o "$tmp/wampde-server" ./cmd/wampde-server
	go build $buildflags -o "$tmp/wampde-load" ./cmd/wampde-load
	peers="@$tmp/addr1,@$tmp/addr2,@$tmp/addr3"
	# Shared cluster knobs: R=2 write-through, heartbeats fast enough that a
	# join propagates within a phase, a 3-failure breaker with a seeded
	# jittered backoff (deterministic retry schedule), and a capped disk tier.
	knobs="-replication 2 -heartbeat-interval 250ms -breaker-threshold 3
		-breaker-cooldown 2s -backoff-base 25ms -backoff-max 250ms
		-backoff-seed 7 -store-max-mb 64 -workers 2 -queue 8 -solver-workers 1"

	start_node() { # $1: node number, $2: listen address
		# shellcheck disable=SC2086 # knobs is deliberately word-split
		"$tmp/wampde-server" -addr "$2" -addr-file "$tmp/addr$1" \
			-store-dir "$tmp/store$1" -prewarm -peers "$peers" $knobs \
			>>"$logdir/cluster-node$1.log" 2>&1 &
		echo $! >"$tmp/pid$1"
	}
	stop_node() { # $1: node number
		kill "$(cat "$tmp/pid$1")" 2>/dev/null || true
		wait "$(cat "$tmp/pid$1")" 2>/dev/null || true
	}
	wait_addr() { # $1: node number
		i=0
		while [ ! -s "$tmp/addr$1" ]; do
			i=$((i + 1))
			[ "$i" -gt 100 ] && { echo "ci: cluster node $1 did not start" >&2; exit 1; }
			sleep 0.1
		done
	}

	start_node 1 127.0.0.1:0
	start_node 2 127.0.0.1:0
	start_node 3 127.0.0.1:0
	for n in 1 2 3; do wait_addr "$n"; done
	addr1="$(cat "$tmp/addr1")"
	addr2="$(cat "$tmp/addr2")"
	addr3="$(cat "$tmp/addr3")"
	nodes="http://$addr1,http://$addr2,http://$addr3"
	for a in "$addr1" "$addr2" "$addr3"; do
		"$tmp/wampde-load" -wait-ready "http://$a"
	done

	echo "-- cluster: mix phase (byte-identity + global single-flight + replication)"
	"$tmp/wampde-load" -cluster "$nodes" -cluster-phase mix \
		-cluster-bodies "$tmp/bodies.json" -cluster-replication 2 \
		-distinct 16 -check

	echo "-- cluster: killing node 1 and restarting it on $addr1 (warm disk store)"
	stop_node 1
	start_node 1 "$addr1"
	"$tmp/wampde-load" -wait-ready "http://$addr1"
	"$tmp/wampde-load" -cluster "$nodes" -cluster-phase restart \
		-cluster-bodies "$tmp/bodies.json" -cluster-restarted "http://$addr1" -check

	echo "-- cluster: node 4 joins mid-traffic (segment-streamed handoff)"
	# The joiner gets only a seed (-join -peers @addr1), no prewarm — every
	# byte it serves must arrive over the handoff stream. Replay traffic
	# keeps flowing against the old nodes while it boots and pulls.
	# shellcheck disable=SC2086 # knobs is deliberately word-split
	"$tmp/wampde-server" -addr 127.0.0.1:0 -addr-file "$tmp/addr4" \
		-store-dir "$tmp/store4" -join -peers "@$tmp/addr1" $knobs \
		>>"$logdir/cluster-node4.log" 2>&1 &
	echo $! >"$tmp/pid4"
	"$tmp/wampde-load" -cluster "$nodes" -cluster-phase replay \
		-cluster-bodies "$tmp/bodies.json" -check
	wait_addr 4
	addr4="$(cat "$tmp/addr4")"
	"$tmp/wampde-load" -wait-ready "http://$addr4"
	"$tmp/wampde-load" -cluster "$nodes" -cluster-phase join \
		-cluster-bodies "$tmp/bodies.json" -cluster-joined "http://$addr4" \
		-cluster-replication 2 -check

	echo "-- cluster: killing node 3 — zero cached bytes and zero availability lost"
	stop_node 3
	survivors="http://$addr1,http://$addr2,http://$addr4"
	"$tmp/wampde-load" -cluster "$survivors" -cluster-phase kill \
		-cluster-bodies "$tmp/bodies.json" -check

	echo "-- cluster: breaker + jittered backoff against the dead owner"
	"$tmp/wampde-load" -cluster "$survivors" -cluster-phase breaker \
		-cluster-ring "$addr1,$addr2,$addr3,$addr4" -cluster-dead "$addr3" \
		-distinct 6 -check

	stop_node 1
	stop_node 2
	stop_node 4
	trap - EXIT
	rm -rf "$tmp"
}

if [ "$tier" = cluster ] || [ "$tier" = all ]; then
	echo "== cluster: 3-node sharded serving gates (race detector)"
	run_cluster -race
fi

# The benchmark gates below print their within-run ratios with -v and fail
# through go test's exit status.
if [ "$tier" = converter ] || [ "$tier" = all ]; then
	echo "== converter: workload goldens + duty-sweep smoke"
	go test -run 'Converter|RippleEnvelope|PWM|PWLDiode|SwitchConductance|DutySweep' ./...
	echo "== converter: MPDE-vs-transient wall-clock gate"
	go test -v -run '^$' -bench 'BenchmarkConverterRipple' -benchtime 1x -timeout 30m .
fi

if [ "$tier" = bench-check ]; then
	echo "== bench-check: hot-loop allocation budgets"
	go test -run '^$' -benchmem -benchtime 3x -bench \
		'BenchmarkFig07VCOEnvelopeVacuum$|BenchmarkAblationChordNewton$|BenchmarkHotLoopAllocs$|BenchmarkGMRESAllocs$|BenchmarkQuasiperiodicWaMPDE$' .
fi

if [ "$tier" = ring-bench-check ]; then
	echo "== ring-bench-check: dense vs matrix-free crossover gate"
	go test -v -run '^$' -bench 'BenchmarkRingScaling|BenchmarkQPRingScaling' \
		-benchtime 1x -timeout 90m .
fi

echo "ci: ok"
