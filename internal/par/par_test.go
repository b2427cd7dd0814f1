package par

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
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

func TestForPanicPropagates(t *testing.T) {
	withWorkers(t, 4, func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("panic in a worker was swallowed")
			}
		}()
		For(64, 4, func(lo, hi int) {
			if lo == 32 {
				panic(errors.New("boom"))
			}
		})
	})
}
