package fourier

// FFTRows runs the forward DFT on every row in place through the per-length
// plan cache; each row's result is identical to calling FFT on it alone.
// Rows may have different lengths.
func FFTRows(rows [][]complex128) {
	var p *Plan
	for _, r := range rows {
		if p == nil || p.n != len(r) {
			p = PlanFFT(len(r))
		}
		p.Forward(r, r)
	}
}

// IFFTRows runs the inverse DFT (with 1/N normalization) on every row in
// place through the plan cache.
func IFFTRows(rows [][]complex128) {
	var p *Plan
	for _, r := range rows {
		if p == nil || p.n != len(r) {
			p = PlanFFT(len(r))
		}
		p.Inverse(r, r)
	}
}
