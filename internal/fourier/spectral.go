package fourier

import (
	"math"
)

// DiffMatrix returns the N-by-N spectral differentiation matrix D for
// 1-periodic functions sampled at tj = j/N: (D x)_j ≈ x'(tj), exact for
// trigonometric polynomials up to the Nyquist limit. Row-major storage,
// row i at D[i*N : (i+1)*N].
//
// This matrix realizes ∂/∂t1 in the time-domain WaMPDE collocation; because
// it is the DFT conjugation of the diagonal operator jk·2π it is exactly the
// harmonic-balance derivative expressed in sample space.
func DiffMatrix(n int) []float64 {
	d := make([]float64, n*n)
	if n <= 1 {
		return d
	}
	// Classical closed forms for the periodic spectral derivative on [0,1).
	if n%2 == 0 {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				k := i - j
				// D_ij = (π)·(-1)^k·cot(πk/N) scaled to period 1.
				d[i*n+j] = math.Pi * negOnePow(k) / math.Tan(math.Pi*float64(k)/float64(n))
			}
		}
	} else {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				k := i - j
				d[i*n+j] = math.Pi * negOnePow(k) / math.Sin(math.Pi*float64(k)/float64(n))
			}
		}
	}
	return d
}

func negOnePow(k int) float64 {
	if k%2 == 0 {
		return 1
	}
	return -1
}

// DiffSamples differentiates a 1-periodic signal given by n uniform samples,
// via the FFT: exact for band-limited content. The Nyquist bin (even n) is
// zeroed, the standard convention that keeps the derivative real.
func DiffSamples(x []float64) []float64 {
	n := len(x)
	if n <= 1 {
		return make([]float64, n)
	}
	p := PlanFFT(n)
	spec := make([]complex128, n)
	p.ForwardReal(spec, x)
	for k := range spec {
		h := HarmonicIndex(k, n)
		if n%2 == 0 && k == n/2 {
			spec[k] = 0
			continue
		}
		// d/dt e^{2πiht} = 2πih e^{2πiht}
		spec[k] *= complex(0, 2*math.Pi*float64(h))
	}
	out := make([]float64, n)
	p.InverseReal(out, spec)
	return out
}

// Interpolate evaluates the trigonometric interpolant of n uniform samples
// of a 1-periodic signal at an arbitrary point t (any real; wrapped mod 1).
func Interpolate(x []float64, t float64) float64 {
	n := len(x)
	switch n {
	case 0:
		return 0
	case 1:
		return x[0]
	}
	p := PlanFFT(n)
	spec := make([]complex128, n)
	p.ForwardReal(spec, x)
	t = t - math.Floor(t)
	s := 0.0
	for k, c := range spec {
		h := HarmonicIndex(k, n)
		if n%2 == 0 && k == n/2 {
			// Split the Nyquist bin symmetrically: cos(πn t) term.
			s += real(c) * math.Cos(2*math.Pi*float64(h)*t)
			continue
		}
		ang := 2 * math.Pi * float64(h) * t
		s += real(c)*math.Cos(ang) - imag(c)*math.Sin(ang)
	}
	return s / float64(n)
}

// Interpolator precomputes the spectrum of a 1-periodic sample set so many
// evaluations are cheap (O(n) trig per point instead of an FFT each).
type Interpolator struct {
	n    int
	spec []complex128
}

// NewInterpolator builds a trigonometric interpolant from uniform samples.
func NewInterpolator(x []float64) *Interpolator {
	spec := make([]complex128, len(x))
	PlanFFT(len(x)).ForwardReal(spec, x)
	return &Interpolator{n: len(x), spec: spec}
}

// Eval evaluates the interpolant at t (wrapped mod 1).
func (ip *Interpolator) Eval(t float64) float64 {
	n := ip.n
	switch n {
	case 0:
		return 0
	case 1:
		return real(ip.spec[0])
	}
	t = t - math.Floor(t)
	s := 0.0
	for k, c := range ip.spec {
		h := HarmonicIndex(k, n)
		if n%2 == 0 && k == n/2 {
			s += real(c) * math.Cos(2*math.Pi*float64(h)*t)
			continue
		}
		ang := 2 * math.Pi * float64(h) * t
		s += real(c)*math.Cos(ang) - imag(c)*math.Sin(ang)
	}
	return s / float64(n)
}

// Coefficients returns the signed-harmonic Fourier coefficients c_h,
// h = -(M)..M with M = floor((n-1)/2), of the interpolant: the coefficient
// slice index i corresponds to harmonic h = i - M. The signal is
// x(t) = Σ_h c_h e^{2πiht} (plus a cosine Nyquist term for even n, which is
// not included here).
func Coefficients(x []float64) []complex128 {
	n := len(x)
	m := (n - 1) / 2
	spec := make([]complex128, n)
	PlanFFT(n).ForwardReal(spec, x)
	out := make([]complex128, 2*m+1)
	for h := -m; h <= m; h++ {
		k := h
		if k < 0 {
			k += n
		}
		out[h+m] = spec[k] / complex(float64(n), 0)
	}
	return out
}
