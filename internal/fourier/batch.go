package fourier

import "repro/internal/par"

// rowGrain returns the number of length-n transforms one parallel chunk
// performs: small rows are batched so each chunk carries a useful amount of
// work, and a handful of large rows still spread over the pool. The grain
// depends only on n, keeping the chunk layout worker-count independent.
func rowGrain(n int) int {
	if n <= 0 {
		return 1
	}
	g := 2048 / n
	if g < 1 {
		g = 1
	}
	return g
}

// FFTRows runs the forward DFT on every row in place. Rows are independent
// and transform on the worker pool through the per-length plan cache; each
// row's result is identical to calling FFT on it alone. Rows may have
// different lengths.
func FFTRows(rows [][]complex128) {
	n := 0
	if len(rows) > 0 {
		n = len(rows[0])
	}
	par.For(len(rows), rowGrain(n), func(lo, hi int) {
		var p *Plan
		for i := lo; i < hi; i++ {
			r := rows[i]
			if p == nil || p.n != len(r) {
				p = PlanFFT(len(r))
			}
			p.Forward(r, r)
		}
	})
}

// IFFTRows runs the inverse DFT (with 1/N normalization) on every row in
// place, in parallel through the plan cache.
func IFFTRows(rows [][]complex128) {
	n := 0
	if len(rows) > 0 {
		n = len(rows[0])
	}
	par.For(len(rows), rowGrain(n), func(lo, hi int) {
		var p *Plan
		for i := lo; i < hi; i++ {
			r := rows[i]
			if p == nil || p.n != len(r) {
				p = PlanFFT(len(r))
			}
			p.Inverse(r, r)
		}
	})
}
