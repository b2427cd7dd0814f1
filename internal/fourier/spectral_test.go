package fourier

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sampleUniform(n int, f func(t float64) float64) []float64 {
	x := make([]float64, n)
	for j := range x {
		x[j] = f(float64(j) / float64(n))
	}
	return x
}

func TestDiffMatrixExactOnTrigPolys(t *testing.T) {
	for _, n := range []int{8, 9, 16, 25} {
		d := DiffMatrix(n)
		maxH := (n - 1) / 2
		for h := 1; h <= maxH; h++ {
			x := sampleUniform(n, func(tt float64) float64 { return math.Sin(2 * math.Pi * float64(h) * tt) })
			want := sampleUniform(n, func(tt float64) float64 {
				return 2 * math.Pi * float64(h) * math.Cos(2*math.Pi*float64(h)*tt)
			})
			for i := 0; i < n; i++ {
				got := 0.0
				for j := 0; j < n; j++ {
					got += d[i*n+j] * x[j]
				}
				if math.Abs(got-want[i]) > 1e-8*(1+math.Abs(want[i])) {
					t.Fatalf("n=%d h=%d row %d: %v vs %v", n, h, i, got, want[i])
				}
			}
		}
	}
}

func TestDiffMatrixAnnihilatesConstants(t *testing.T) {
	for _, n := range []int{6, 7} {
		d := DiffMatrix(n)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += d[i*n+j]
			}
			if math.Abs(s) > 1e-10 {
				t.Fatalf("n=%d: row %d sum = %v, want 0", n, i, s)
			}
		}
	}
}

func TestDiffMatrixMatchesDiffSamples(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// Remove the Nyquist component for even n, where the matrix and the
		// FFT convention (zeroed bin) agree only after this projection.
		if n%2 == 0 {
			spec := FFTReal(x)
			spec[n/2] = 0
			x = IFFTReal(spec)
		}
		d := DiffMatrix(n)
		viaFFT := DiffSamples(x)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += d[i*n+j] * x[j]
			}
			if math.Abs(s-viaFFT[i]) > 1e-8*(1+math.Abs(viaFFT[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDiffSamplesOnCos(t *testing.T) {
	n := 32
	x := sampleUniform(n, func(tt float64) float64 { return math.Cos(2 * math.Pi * 3 * tt) })
	dx := DiffSamples(x)
	for j := 0; j < n; j++ {
		tt := float64(j) / float64(n)
		want := -2 * math.Pi * 3 * math.Sin(2*math.Pi*3*tt)
		if math.Abs(dx[j]-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("dx[%d] = %v, want %v", j, dx[j], want)
		}
	}
}

func TestDiffSamplesDegenerate(t *testing.T) {
	if out := DiffSamples(nil); len(out) != 0 {
		t.Fatal("nil input should give empty output")
	}
	if out := DiffSamples([]float64{5}); out[0] != 0 {
		t.Fatal("single sample has zero derivative")
	}
}

func TestInterpolateReproducesSamples(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for j := 0; j < n; j++ {
			got := Interpolate(x, float64(j)/float64(n))
			if math.Abs(got-x[j]) > 1e-9*(1+math.Abs(x[j])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInterpolateBandLimitedExact(t *testing.T) {
	n := 16
	fn := func(tt float64) float64 {
		return 1.5 + math.Sin(2*math.Pi*tt) - 0.5*math.Cos(2*math.Pi*3*tt)
	}
	x := sampleUniform(n, fn)
	for _, tt := range []float64{0.05, 0.13, 0.777, 0.999, 1.23, -0.4} {
		got := Interpolate(x, tt)
		want := fn(tt - math.Floor(tt))
		if math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
			t.Fatalf("Interpolate(%v) = %v, want %v", tt, got, want)
		}
	}
}

func TestInterpolatorMatchesInterpolate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 15
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ip := NewInterpolator(x)
	for _, tt := range []float64{0, 0.21, 0.5, 0.93} {
		if math.Abs(ip.Eval(tt)-Interpolate(x, tt)) > 1e-12 {
			t.Fatalf("Interpolator differs at %v", tt)
		}
	}
}

func TestCoefficientsOfKnownSignal(t *testing.T) {
	// x(t) = 2 + cos(2πt): c_0 = 2, c_{±1} = 1/2.
	n := 9
	x := sampleUniform(n, func(tt float64) float64 { return 2 + math.Cos(2*math.Pi*tt) })
	c := Coefficients(x)
	m := (n - 1) / 2
	for h := -m; h <= m; h++ {
		want := complex(0, 0)
		switch h {
		case 0:
			want = 2
		case 1, -1:
			want = 0.5
		}
		got := c[h+m]
		if math.Abs(real(got-want)) > 1e-10 || math.Abs(imag(got-want)) > 1e-10 {
			t.Fatalf("c[%d] = %v, want %v", h, got, want)
		}
	}
}

func TestSpectrum1Sided(t *testing.T) {
	n := 64
	x := sampleUniform(n, func(tt float64) float64 {
		return 3 + 2*math.Sin(2*math.Pi*4*tt) + 0.5*math.Cos(2*math.Pi*10*tt)
	})
	amp := Spectrum1Sided(x)
	if math.Abs(amp[0]-3) > 1e-10 {
		t.Fatalf("DC amp = %v, want 3", amp[0])
	}
	if math.Abs(amp[4]-2) > 1e-10 {
		t.Fatalf("h=4 amp = %v, want 2", amp[4])
	}
	if math.Abs(amp[10]-0.5) > 1e-10 {
		t.Fatalf("h=10 amp = %v, want 0.5", amp[10])
	}
	for _, k := range []int{1, 2, 3, 5, 7, 20} {
		if amp[k] > 1e-10 {
			t.Fatalf("spurious amplitude at %d: %v", k, amp[k])
		}
	}
}

func TestSpectrum1SidedEmpty(t *testing.T) {
	if Spectrum1Sided(nil) != nil {
		t.Fatal("empty spectrum should be nil")
	}
}
