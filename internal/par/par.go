// Package par is the repository's bounded worker pool. It runs only
// kernels in which each chunk updates or factors a whole matrix: the
// trailing update of a dense LU panel that leaves at least 256 trailing rows
// (la.LU.FactorInto; smaller updates, every one at n ≤ 303, stay serial),
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
// With one worker every helper degrades to a plain loop on the calling
// goroutine — no goroutines are spawned, so small problems pay nothing.
// Callers choose grain so that small inputs collapse to a single chunk
// (serial) and large inputs produce chunks of a few microseconds of work;
// grain must not be derived from Workers(), or the chunk layout would
// depend on the worker count.
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
		// Same chunk layout as the parallel path, in ascending order; this
		// loop must not allocate (the solver hot paths hit it thousands of
		// times per run at one worker), which is why the goroutine machinery
		// lives in forParallel — its captured coordination state would
		// otherwise heap-allocate here too.
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

// forParallel distributes chunks over w goroutines; split out of For so the
// serial path never allocates the coordination state captured below.
func forParallel(n, grain, nChunks, w int, fn func(lo, hi int)) {
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
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
