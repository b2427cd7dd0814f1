package par

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// withWorkers runs f with a fixed worker-count override.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := SetWorkers(n)
	defer SetWorkers(prev)
	f()
}

func TestWorkersResolutionOrder(t *testing.T) {
	prev := SetWorkers(0)
	defer SetWorkers(prev)
	t.Setenv(EnvWorkers, "6")
	if got := Workers(); got != 6 {
		t.Fatalf("env: Workers() = %d, want 6", got)
	}
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("override beats env: Workers() = %d, want 3", got)
	}
	SetWorkers(0)
	t.Setenv(EnvWorkers, "bogus")
	if got := Workers(); got < 1 {
		t.Fatalf("bad env must fall back to GOMAXPROCS, got %d", got)
	}
	t.Setenv(EnvWorkers, "-2")
	if got := Workers(); got < 1 {
		t.Fatalf("negative env must fall back to GOMAXPROCS, got %d", got)
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 7, 64, 1000} {
			for _, grain := range []int{1, 3, 16, 2000} {
				withWorkers(t, w, func() {
					hits := make([]int32, n)
					For(n, grain, func(lo, hi int) {
						if lo < 0 || hi > n || lo >= hi {
							t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
						}
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&hits[i], 1)
						}
					})
					for i, h := range hits {
						if h != 1 {
							t.Fatalf("w=%d n=%d grain=%d: index %d hit %d times", w, n, grain, i, h)
						}
					}
				})
			}
		}
	}
}

// TestForDeterministicOutput checks the core contract: a kernel whose
// per-index output depends only on the index produces bitwise-identical
// results at any worker count.
func TestForDeterministicOutput(t *testing.T) {
	const n = 513
	kernel := func(out []float64) {
		For(n, 7, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = math.Sin(float64(i)) * math.Exp(-float64(i)/100)
			}
		})
	}
	var ref []float64
	for _, w := range []int{1, 2, 4, 8} {
		withWorkers(t, w, func() {
			out := make([]float64, n)
			kernel(out)
			if ref == nil {
				ref = out
				return
			}
			for i := range out {
				if out[i] != ref[i] {
					t.Fatalf("workers=%d: out[%d]=%x differs from ref %x", w, i, out[i], ref[i])
				}
			}
		})
	}
}

func TestForErrReturnsLowestChunkError(t *testing.T) {
	for _, w := range []int{1, 4} {
		withWorkers(t, w, func() {
			err := ForErr(100, 10, func(lo, hi int) error {
				if lo >= 30 {
					return fmt.Errorf("chunk at %d failed", lo)
				}
				return nil
			})
			if err == nil || err.Error() != "chunk at 30 failed" {
				t.Fatalf("workers=%d: err = %v, want the lowest-chunk error", w, err)
			}
		})
	}
	if err := ForErr(50, 7, func(lo, hi int) error { return nil }); err != nil {
		t.Fatalf("clean run returned %v", err)
	}
}

// TestForPanicPropagates panics in one chunk, in the last chunk and in
// every chunk, so the panic comes from the caller's own claims, a helper's or
// both, and checks that it reaches the caller and that the pool still runs
// a full range afterwards.
func TestForPanicPropagates(t *testing.T) {
	for _, w := range []int{2, 4, 8} {
		for _, at := range []int{32, 60, -1} {
			withWorkers(t, w, func() {
				func() {
					defer func() {
						if r := recover(); r == nil {
							t.Fatalf("workers=%d panic at %d: the panic was swallowed", w, at)
						}
					}()
					For(64, 4, func(lo, hi int) {
						if lo == at || at < 0 {
							panic(errors.New("boom"))
						}
					})
				}()
				var hits atomic.Int64
				For(64, 4, func(lo, hi int) { hits.Add(int64(hi - lo)) })
				if hits.Load() != 64 {
					t.Fatalf("workers=%d: after a panic the pool covered %d of 64 indices", w, hits.Load())
				}
			})
		}
	}
}

// sumKernel is a kernel built once, as la.LU builds its trailing update:
// dispatching it hands the pool an existing function value.
type sumKernel struct{ in, out []float64 }

func (k *sumKernel) run(lo, hi int) {
	for i := lo; i < hi; i++ {
		k.out[i] = 2*k.in[i] + 1
	}
}

// TestForPrebuiltKernelAllocatesNothing dispatches a prebuilt kernel at two
// and eight workers: once the pool is warm a dispatch allocates nothing.
// The average runs over 200 dispatches because a parked goroutine may take a
// fresh runtime wait record (a sudog) now and then, when it parks on a
// processor whose cache of them is empty; that stays below one object per
// dispatch, where a pool that built its coordination state per dispatch
// would read several.
func TestForPrebuiltKernelAllocatesNothing(t *testing.T) {
	const n = 4096
	k := &sumKernel{in: make([]float64, n), out: make([]float64, n)}
	kernel := k.run
	for _, w := range []int{2, 8} {
		withWorkers(t, w, func() {
			allocs := testing.AllocsPerRun(200, func() { For(n, 64, kernel) })
			if allocs > 0 {
				t.Errorf("workers=%d: For allocates %.1f objects/op, want 0", w, allocs)
			}
		})
	}
}

// TestForNestedDispatchCompletes runs chunks that each call For themselves,
// with more outer chunks than workers, so nested dispatches find every
// helper busy: each must finish on its caller, and every index must be
// covered exactly once.
func TestForNestedDispatchCompletes(t *testing.T) {
	const outer, inner = 24, 300
	for _, w := range []int{2, 8} {
		withWorkers(t, w, func() {
			hits := make([]int32, outer*inner)
			done := make(chan struct{})
			go func() {
				defer close(done)
				For(outer, 1, func(lo, hi int) {
					for o := lo; o < hi; o++ {
						For(inner, 7, func(ilo, ihi int) {
							for i := ilo; i < ihi; i++ {
								atomic.AddInt32(&hits[o*inner+i], 1)
							}
						})
					}
				})
			}()
			select {
			case <-done:
			case <-time.After(time.Minute):
				t.Fatalf("workers=%d: nested dispatch did not finish", w)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d: index %d hit %d times", w, i, h)
				}
			}
		})
	}
}
