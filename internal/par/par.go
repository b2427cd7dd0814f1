// Package par is the repository's bounded worker pool. It runs only
// kernels in which each chunk updates or factors a whole matrix: the
// trailing update of a dense LU panel that leaves at least 256 trailing rows
// (la.LU.FactorInto; smaller updates, every one at n ≤ 271, stay serial),
// the quasiperiodic solve's per-line diagonal blocks (core's fillLines), and
// the block-Jacobi preconditioner's factor and apply (krylov).
// Per-collocation-point and per-harmonic kernels do microseconds of work per
// call, less than a dispatch costs, so they run as plain loops on the
// calling goroutine.
//
// # Determinism
//
// The chunk decomposition of an index range depends only on (n, grain),
// never on how many workers execute the chunks, and ForErr reports errors in
// ascending chunk order. A kernel passed to For/ForErr must keep each
// index's output independent of which chunk computed it (the natural style:
// chunk [lo,hi) writes only data owned by indices in [lo,hi)); under that
// contract the floating-point result is bitwise identical for any worker
// count, which the repository's determinism tests assert end to end.
//
// # Sizing
//
// The worker count resolves, in order: the programmatic SetWorkers
// override, the WAMPDE_WORKERS environment variable, then GOMAXPROCS.
// With one worker (or one chunk) For is a plain loop on the calling
// goroutine, so small problems pay nothing. Callers choose grain so that
// small inputs collapse to a single chunk (serial) and large inputs produce
// chunks of a few microseconds of work; grain must not be derived from
// Workers(), or the chunk layout would depend on the worker count.
//
// # Helpers
//
// A parallel For runs its chunks on the calling goroutine and on up to
// Workers()−1 helper goroutines. Helpers start at the first dispatch that
// needs them and then live for the process, blocked on a channel between
// dispatches. A dispatch hands its job only to helpers that are idle at
// that moment and never waits for a busy one, so a chunk that itself calls
// For finishes on its own goroutine when every helper is busy. Jobs are
// recycled, so a dispatch allocates nothing beyond what the caller builds:
// pass a kernel built once, not a fresh closure, and For allocates nothing.
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWorkers is the environment variable consulted by Workers when no
// programmatic override is set.
const EnvWorkers = "WAMPDE_WORKERS"

// override holds the SetWorkers value; 0 means "no override".
var override atomic.Int64

// Workers returns the current worker-pool width: the SetWorkers override
// if one is set, else a positive integer parsed from WAMPDE_WORKERS, else
// GOMAXPROCS. The result is always ≥ 1.
func Workers() int {
	if v := override.Load(); v > 0 {
		return int(v)
	}
	if s := os.Getenv(EnvWorkers); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers installs a programmatic worker-count override, taking
// precedence over WAMPDE_WORKERS; n ≤ 0 removes the override. It returns
// the previous override (0 if none was set), so callers can restore state
// with SetWorkers(prev).
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(override.Swap(int64(n)))
}

// numChunks returns the chunk count for an n-index range at the given
// grain. The layout is a pure function of (n, grain).
func numChunks(n, grain int) int {
	return (n + grain - 1) / grain
}

// For runs fn over the index range [0, n) split into chunks of at most
// grain consecutive indices, distributing chunks over the worker pool.
// fn(lo, hi) must handle exactly the half-open range it is given and must
// not assume any chunk ordering; chunks may run concurrently. With one
// worker (or a single chunk) everything runs on the calling goroutine.
// A panic inside fn is re-raised on the caller.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	nChunks := numChunks(n, grain)
	w := Workers()
	if w > nChunks {
		w = nChunks
	}
	if w <= 1 {
		// Same chunk layout as the parallel path, in ascending order; the
		// solver hot paths hit this loop thousands of times per run at one
		// worker, so it never touches the pool.
		for lo := 0; lo < n; lo += grain {
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
		return
	}
	forParallel(n, grain, nChunks, w, fn)
}

// job is one parallel dispatch: the chunk layout, the kernel and the claim
// counter that the caller and the helpers share. Jobs are recycled through
// pool.free, so a dispatch allocates nothing once the pool is warm.
type job struct {
	fn                func(lo, hi int)
	n, grain, nChunks int
	next              atomic.Int64
	helpers           sync.WaitGroup
	panicMu           sync.Mutex
	panicked          any
}

// pool holds the helper goroutines, which start lazily and then live for
// the process, blocked on jobs between dispatches. free keeps finished jobs
// for reuse; its 16 slots cover the dispatches in flight at once (nested
// ones and concurrent callers), and a job returned to a full list is left
// to the garbage collector.
var pool = struct {
	mu      sync.Mutex
	started int       // helpers started, guarded by mu
	jobs    chan *job // unbuffered: a send succeeds only to an idle helper
	free    chan *job
}{jobs: make(chan *job), free: make(chan *job, 16)}

// helper runs the jobs handed to it for the life of the process.
func helper() {
	for j := range pool.jobs {
		j.work()
		j.helpers.Done()
	}
}

// startHelpers makes sure at least k helpers exist.
func startHelpers(k int) {
	pool.mu.Lock()
	for ; pool.started < k; pool.started++ {
		go helper()
	}
	pool.mu.Unlock()
}

// work claims and runs chunks of j until none is left. A panic in fn stops
// this goroutine's claims and is kept for the caller to re-raise; the other
// goroutines finish the remaining chunks.
func (j *job) work() {
	defer func() {
		if r := recover(); r != nil {
			j.panicMu.Lock()
			if j.panicked == nil {
				j.panicked = r
			}
			j.panicMu.Unlock()
		}
	}()
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.nChunks {
			return
		}
		lo := c * j.grain
		j.fn(lo, min(lo+j.grain, j.n))
	}
}

// forParallel hands the job to at most w-1 idle helpers, without waiting
// for a busy one, and claims chunks on the calling goroutine too, so a
// chunk that itself calls For (block-Jacobi factoring a block large enough
// for a pooled LU update) finishes even when every helper is busy.
func forParallel(n, grain, nChunks, w int, fn func(lo, hi int)) {
	startHelpers(w - 1)
	var j *job
	select {
	case j = <-pool.free:
	default:
		j = new(job)
	}
	j.fn, j.n, j.grain, j.nChunks = fn, n, grain, nChunks
	j.next.Store(0)
handOff:
	for h := 1; h < w; h++ {
		j.helpers.Add(1)
		select {
		case pool.jobs <- j:
		default:
			j.helpers.Done()
			break handOff
		}
	}
	j.work()
	j.helpers.Wait()
	panicked := j.panicked
	j.fn, j.panicked = nil, nil
	select {
	case pool.free <- j:
	default:
	}
	if panicked != nil {
		panic(panicked)
	}
}

// ForErr is For with error collection: every chunk runs (no short-circuit,
// so serial and parallel execution perform the same work), and the returned
// error is the first non-nil one in ascending chunk order — deterministic
// regardless of completion order.
func ForErr(n, grain int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if grain < 1 {
		grain = 1
	}
	errs := make([]error, numChunks(n, grain))
	For(n, grain, func(lo, hi int) {
		errs[lo/grain] = fn(lo, hi)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
