package fourier

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func cAlmostEq(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol*(1+cmplx.Abs(a)+cmplx.Abs(b))
}

// forward and inverse run the shared plan out of place.
func forward(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	PlanFFT(len(x)).Forward(out, x)
	return out
}

func inverse(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	PlanFFT(len(x)).Inverse(out, x)
	return out
}

func randomComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestFFTMatchesNaiveDFTAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 33; n++ {
		x := randomComplex(rng, n)
		got := forward(x)
		want := oracleDFT(x, false)
		for k := range want {
			if !cAlmostEq(got[k], want[k], 1e-9) {
				t.Fatalf("n=%d bin %d: %v vs %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(99)
		x := randomComplex(rng, n)
		y := inverse(forward(x))
		for i := range x {
			if !cAlmostEq(x[i], y[i], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		x := randomComplex(rng, n)
		spec := forward(x)
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(spec[i])*real(spec[i]) + imag(spec[i])*imag(spec[i])
		}
		ef /= float64(n)
		return math.Abs(et-ef) <= 1e-9*(1+et)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 24
	x := randomComplex(rng, n)
	y := randomComplex(rng, n)
	z := make([]complex128, n)
	for i := range z {
		z[i] = 2*x[i] - 3i*y[i]
	}
	fx, fy, fz := forward(x), forward(y), forward(z)
	for k := range fz {
		if !cAlmostEq(fz[k], 2*fx[k]-3i*fy[k], 1e-10) {
			t.Fatalf("linearity violated at bin %d", k)
		}
	}
}

func TestFFTPureToneLandsInOneBin(t *testing.T) {
	n := 64
	h := 5
	x := make([]complex128, n)
	for j := range x {
		ang := 2 * math.Pi * float64(h) * float64(j) / float64(n)
		x[j] = cmplx.Exp(complex(0, ang))
	}
	spec := forward(x)
	for k := range spec {
		want := complex(0, 0)
		if k == h {
			want = complex(float64(n), 0)
		}
		if !cAlmostEq(spec[k], want, 1e-9) {
			t.Fatalf("bin %d = %v", k, spec[k])
		}
	}
}

func TestFFTRealConjugateSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 30
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	p := PlanFFT(n)
	spec := make([]complex128, n)
	p.ForwardReal(spec, x)
	for k := 1; k < n; k++ {
		if !cAlmostEq(spec[k], cmplx.Conj(spec[n-k]), 1e-10) {
			t.Fatalf("conjugate symmetry broken at %d", k)
		}
	}
	back := make([]float64, n)
	p.InverseReal(back, spec)
	for i := range x {
		if math.Abs(back[i]-x[i]) > 1e-10 {
			t.Fatalf("real round trip failed at %d", i)
		}
	}
}

func TestHarmonicIndex(t *testing.T) {
	cases := []struct{ k, n, want int }{
		{0, 8, 0}, {1, 8, 1}, {4, 8, 4}, {5, 8, -3}, {7, 8, -1},
		{0, 7, 0}, {3, 7, 3}, {4, 7, -3}, {6, 7, -1},
	}
	for _, c := range cases {
		if got := HarmonicIndex(c.k, c.n); got != c.want {
			t.Fatalf("HarmonicIndex(%d,%d) = %d, want %d", c.k, c.n, got, c.want)
		}
	}
}

func TestBluesteinPrimeSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{3, 5, 7, 11, 13, 17, 97, 101} {
		x := randomComplex(rng, n)
		got := forward(x)
		want := oracleDFT(x, false)
		for k := range want {
			if !cAlmostEq(got[k], want[k], 1e-8) {
				t.Fatalf("prime n=%d bin %d differ", n, k)
			}
		}
	}
}
