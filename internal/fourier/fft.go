// Package fourier implements the discrete Fourier machinery used by the
// harmonic-balance and spectral-collocation solvers: cached FFT plans for
// arbitrary lengths (radix-2 plus Bluestein's algorithm, see Plan), batched
// row transforms, spectral differentiation, and trigonometric
// interpolation.
//
// Convention: the forward transform is X[k] = Σ_n x[n]·e^{-2πikn/N} and the
// inverse is x[n] = (1/N)·Σ_k X[k]·e^{+2πikn/N}, so Inverse(Forward(x)) = x.
package fourier

// HarmonicIndex maps the DFT bin k of an N-point transform to its signed
// harmonic number in [-N/2, N/2): bins above N/2 are negative frequencies.
func HarmonicIndex(k, n int) int {
	if k <= n/2 {
		return k
	}
	return k - n
}
