package fourier

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// oracleDFT is the O(N²) reference the fast paths are checked against.
func oracleDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		if inverse {
			s /= complex(float64(n), 0)
		}
		out[k] = s
	}
	return out
}

// awkwardLengths sweeps the cases that exercise every kernel branch: the
// trivial N=1/N=2 transforms, powers of two, small and large primes (pure
// Bluestein), and prime·2^k composites whose Bluestein convolution length is
// far from the signal length.
var awkwardLengths = []int{1, 2, 3, 4, 5, 7, 8, 11, 13, 16, 17, 31, 64, 97, 101, 127, 3 * 32, 97 * 4, 113 * 8}

func randSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	d := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > d {
			d = e
		}
	}
	return d
}

// TestBluesteinAgainstNaiveDFT checks the cached Plan against the naive
// oracle over the awkward-length sweep, in both directions.
func TestBluesteinAgainstNaiveDFT(t *testing.T) {
	for _, n := range awkwardLengths {
		x := randSignal(n, int64(1000+n))
		tol := 1e-10 * float64(n) * math.Sqrt(float64(n))
		for _, inverse := range []bool{false, true} {
			want := oracleDFT(x, inverse)

			p := PlanFFT(n)
			planned := make([]complex128, n)
			if inverse {
				p.Inverse(planned, x)
			} else {
				p.Forward(planned, x)
			}
			if d := maxDiff(planned, want); d > tol {
				t.Errorf("n=%d inverse=%v: planned FFT deviates from naive DFT by %g (tol %g)", n, inverse, d, tol)
			}

			// In-place transform must match the out-of-place one.
			inPlace := append([]complex128(nil), x...)
			if inverse {
				p.Inverse(inPlace, inPlace)
			} else {
				p.Forward(inPlace, inPlace)
			}
			for i := range inPlace {
				if inPlace[i] != planned[i] {
					t.Fatalf("n=%d inverse=%v: in-place plan transform differs at bin %d", n, inverse, i)
				}
			}
		}
	}
}

// TestPlanRoundTrip checks Inverse∘Forward ≈ identity at awkward lengths.
func TestPlanRoundTrip(t *testing.T) {
	for _, n := range awkwardLengths {
		x := randSignal(n, int64(2000+n))
		p := PlanFFT(n)
		y := make([]complex128, n)
		p.Forward(y, x)
		p.Inverse(y, y)
		tol := 1e-11 * float64(n)
		if d := maxDiff(y, x); d > tol {
			t.Errorf("n=%d: round trip error %g (tol %g)", n, d, tol)
		}
	}
}

// TestPlanRealHelpers checks ForwardReal against the naive oracle and
// InverseReal as its inverse.
func TestPlanRealHelpers(t *testing.T) {
	for _, n := range awkwardLengths {
		rng := rand.New(rand.NewSource(int64(3000 + n)))
		x := make([]float64, n)
		xc := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			xc[i] = complex(x[i], 0)
		}
		tol := 1e-10 * float64(n) * math.Sqrt(float64(n))
		p := PlanFFT(n)
		spec := make([]complex128, n)
		p.ForwardReal(spec, x)
		if d := maxDiff(spec, oracleDFT(xc, false)); d > tol {
			t.Errorf("n=%d: ForwardReal deviates from naive DFT by %g (tol %g)", n, d, tol)
		}
		back := make([]float64, n)
		p.InverseReal(back, spec)
		for i := range back {
			if d := math.Abs(back[i] - x[i]); d > tol {
				t.Fatalf("n=%d: InverseReal round trip off by %g at sample %d", n, d, i)
			}
		}
	}
}

// TestPlanConcurrent hammers a single shared plan from many goroutines; the
// pooled Bluestein scratch must keep transforms independent.
func TestPlanConcurrent(t *testing.T) {
	const n = 97 * 4 // Bluestein path with pooled convolution scratch
	p := PlanFFT(n)
	x := randSignal(n, 42)
	want := make([]complex128, n)
	p.Forward(want, x)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]complex128, n)
			for it := 0; it < 50; it++ {
				p.Forward(got, x)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("concurrent transform diverged at bin %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlanCacheEviction fills the shared cache past PlanCacheCap with fresh
// lengths so the LRU policy must evict, then confirms three things: the cache
// never holds more than PlanCacheCap entries, an evicted length really left
// the cache, and the re-planned instance produces transforms bitwise equal to
// the pre-eviction plan — eviction may cost a rebuild but can never change
// results.
func TestPlanCacheEviction(t *testing.T) {
	for _, n := range []int{64, 97} { // radix-2 and Bluestein victims
		x := randSignal(n, int64(4000+n))
		before := PlanFFT(n)
		fwd := make([]complex128, n)
		inv := make([]complex128, n)
		before.Forward(fwd, x)
		before.Inverse(inv, x)

		// Flood the cache with more than PlanCacheCap fresh lengths; the
		// victim length is untouched throughout, so it becomes the LRU entry
		// and must be evicted. Base offsets per victim keep the flood lengths
		// disjoint from every length any other test planned, and small enough
		// that the throwaway plans are cheap to build.
		for i := 0; i < PlanCacheCap+4; i++ {
			PlanFFT(2048 + 64*n + i)
		}

		resident := 0
		planCache.Range(func(k, v any) bool {
			resident++
			return true
		})
		if resident > PlanCacheCap {
			t.Fatalf("n=%d: %d plans resident after flood, cap %d", n, resident, PlanCacheCap)
		}
		if _, ok := planCache.Load(n); ok {
			t.Fatalf("n=%d: victim survived a flood of %d fresh lengths", n, PlanCacheCap+4)
		}

		// The evicted *Plan a caller held must keep working unchanged.
		again := make([]complex128, n)
		before.Forward(again, x)
		for i := range again {
			if again[i] != fwd[i] {
				t.Fatalf("n=%d: held plan changed output after eviction at bin %d", n, i)
			}
		}

		after := PlanFFT(n)
		if after == before {
			t.Fatalf("n=%d: PlanFFT returned the evicted instance; expected a rebuild", n)
		}
		fwd2 := make([]complex128, n)
		inv2 := make([]complex128, n)
		after.Forward(fwd2, x)
		after.Inverse(inv2, x)
		for i := 0; i < n; i++ {
			if fwd2[i] != fwd[i] {
				t.Fatalf("n=%d: re-planned forward differs at bin %d: pre-evict %v, re-plan %v", n, i, fwd[i], fwd2[i])
			}
			if inv2[i] != inv[i] {
				t.Fatalf("n=%d: re-planned inverse differs at bin %d: pre-evict %v, re-plan %v", n, i, inv[i], inv2[i])
			}
		}
	}
}

// TestPlanSteadyStateAllocs locks in that repeated same-length transforms do
// not allocate once the plan and its pooled scratch are warm.
func TestPlanSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts, so pooled scratch reallocates")
	}
	for _, n := range []int{64, 97} { // radix-2 and Bluestein
		p := PlanFFT(n)
		x := randSignal(n, int64(n))
		dst := make([]complex128, n)
		p.Forward(dst, x) // warm the pool
		allocs := testing.AllocsPerRun(100, func() {
			p.Forward(dst, x)
			p.Inverse(dst, dst)
		})
		if allocs > 0 {
			t.Errorf("n=%d: steady-state plan transform allocates %.1f objects/op, want 0", n, allocs)
		}
	}
}
