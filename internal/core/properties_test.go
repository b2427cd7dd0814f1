package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based tests on the bivariate-slice utilities and the result
// accessors: these invariants back the eq. (15)/(17) reconstruction.

func randomSlice(rng *rand.Rand, n1, n int) []float64 {
	x := make([]float64, n1*n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestShiftBivariateInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1 := 5 + 2*rng.Intn(8) // odd sizes: exact trigonometric round trip
		n := 1 + rng.Intn(4)
		x := randomSlice(rng, n1, n)
		shift := rng.Float64()
		y := ShiftBivariate(ShiftBivariate(x, n1, n, shift), n1, n, -shift)
		for i := range x {
			if math.Abs(x[i]-y[i]) > 1e-9*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestShiftBivariateFullCycleIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randomSlice(rng, 9, 3)
	y := ShiftBivariate(x, 9, 3, 1.0)
	for i := range x {
		if math.Abs(x[i]-y[i]) > 1e-10 {
			t.Fatal("shift by one full cycle must be the identity")
		}
	}
}

func TestResampleBivariateRoundTripProperty(t *testing.T) {
	// Upsampling then downsampling back is exact for band-limited content
	// (odd grids).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1 := 5 + 2*rng.Intn(6)
		n := 1 + rng.Intn(3)
		x := randomSlice(rng, n1, n)
		up := ResampleBivariate(x, n1, n, 2*n1+1)
		back := ResampleBivariate(up, 2*n1+1, n, n1)
		for i := range x {
			if math.Abs(x[i]-back[i]) > 1e-9*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPhaseRowAnnihilatesConstants(t *testing.T) {
	// Both derivative-zero and spectral phase rows must vanish on constant
	// slices (a constant waveform carries no phase information).
	for _, kind := range []PhaseKind{PhaseDerivativeZero, PhaseSpectralImag} {
		w, err := phaseRow(kind, 12)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range w {
			sum += v
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("%v phase row does not annihilate constants: %v", kind, sum)
		}
	}
}

func TestPhaseRowDetectsShiftSign(t *testing.T) {
	// For a cosine slice, the derivative-zero row changes sign with the
	// direction of a small phase shift — the property Newton relies on to
	// steer ω.
	n1 := 16
	w, err := phaseRow(PhaseDerivativeZero, n1)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(shift float64) float64 {
		s := 0.0
		for j := 0; j < n1; j++ {
			s += w[j] * math.Cos(2*math.Pi*(float64(j)/float64(n1)+shift))
		}
		return s
	}
	plus, minus := apply(0.01), apply(-0.01)
	if !(plus*minus < 0) {
		t.Fatalf("phase row should flip sign with the shift: %v vs %v", plus, minus)
	}
	if math.Abs(apply(0)) > 1e-10 {
		t.Fatalf("aligned cosine should satisfy the phase condition: %v", apply(0))
	}
}

func TestEnvelopeResultPhiMonotoneProperty(t *testing.T) {
	// φ must be strictly increasing whenever ω > 0 — it is the oscillation
	// phase (eq. (17)).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		r := &EnvelopeResult{N1: 1, N: 1}
		tcur := 0.0
		for k := 0; k < n; k++ {
			r.T2 = append(r.T2, tcur)
			r.Omega = append(r.Omega, 0.1+rng.Float64())
			r.X = append(r.X, []float64{0})
			if k == 0 {
				r.Phi = append(r.Phi, 0)
			} else {
				h := r.T2[k] - r.T2[k-1]
				r.Phi = append(r.Phi, r.Phi[k-1]+h*(r.Omega[k]+r.Omega[k-1])/2)
			}
			tcur += 0.1 + rng.Float64()
		}
		prev := math.Inf(-1)
		for i := 0; i <= 50; i++ {
			tv := r.T2[0] + (r.T2[n-1]-r.T2[0])*float64(i)/50
			p := r.PhiAt(tv)
			if p <= prev {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQPResultPhiPeriodAdditivity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n2 := 12
	r := &QPResult{N1: 1, N2: n2, N: 1, T2: 7.5}
	for j := 0; j < n2; j++ {
		r.Omega = append(r.Omega, 0.5+rng.Float64())
		r.X = append(r.X, [][]float64{{0}})
	}
	onePeriod := r.PhiAt(r.T2)
	for _, k := range []float64{2, 3, 5} {
		if math.Abs(r.PhiAt(k*r.T2)-k*onePeriod) > 1e-9*k*onePeriod {
			t.Fatalf("PhiAt not additive over %v periods", k)
		}
	}
	if math.Abs(r.PhiAt(-r.T2)+onePeriod) > 1e-9*onePeriod {
		t.Fatal("PhiAt should be odd in t")
	}
}
