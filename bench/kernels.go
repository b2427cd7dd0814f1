package main

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/fourier"
	"repro/internal/la"
)

// kernels times the dense LU (factor and solve, size n) and the FFT (size
// nfft) through their public entry points, at the sizes the workload's
// solves use. The operation and byte counts printed beside them are computed
// from the sizes, not measured.
func kernels(r *runner, n, nfft int) {
	// A diagonally dominant matrix: well conditioned, with the row swaps of
	// partial pivoting rare, as in the solvers' step Jacobians.
	rng := rand.New(rand.NewSource(1))
	a := la.NewDense(n, n)
	for i := range a.Data {
		a.Data[i] = rng.Float64() - 0.5
	}
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += float64(n)
	}
	f := la.NewLU(n)
	var ferr error
	factor := perCall(func() {
		if err := f.FactorInto(a); err != nil {
			ferr = err
		}
	})
	if !r.op("la.factor", ferr) {
		return
	}
	b, x := make([]float64, n), make([]float64, n)
	for i := range b {
		b[i] = rng.Float64()
	}
	solve := perCall(func() { f.Solve(b, x) })

	p := fourier.PlanFFT(nfft)
	src, dst := make([]complex128, nfft), make([]complex128, nfft)
	for i := range src {
		src[i] = complex(rng.Float64(), rng.Float64())
	}
	fft := perCall(func() { p.Forward(dst, src) })

	nf := float64(n)
	flop := 2 * nf * nf * nf / 3
	r.record("la.factor_us", "us", factor...)
	r.record("la.factor_flop", "flop", flop).note = "computed"
	r.record("la.factor_gflops", "GFLOP/s", flop/median(factor)/1e3).note = "computed"
	r.record("la.matrix_bytes", "B", 8*nf*nf).note = "computed"
	r.record("la.solve_us", "us", solve...)
	r.record("la.solve_flop", "flop", 2*nf*nf).note = "computed"
	r.record("fourier.fft_us", "us", fft...)
	r.record("fourier.fft_flop", "flop", 5*float64(nfft)*math.Log2(float64(nfft))).note = "computed"
}

// perCall times fn in batches long enough for the clock (at least 200 µs),
// at least three batches and 200 ms in all, and returns each batch's time
// per call in µs.
func perCall(fn func()) []float64 {
	k := 1
	for {
		t := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		if time.Since(t) >= 200*time.Microsecond {
			break
		}
		k *= 2
	}
	var out []float64
	start := time.Now()
	for len(out) < 3 || time.Since(start) < 200*time.Millisecond {
		t := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		out = append(out, float64(time.Since(t))/1e3/float64(k))
	}
	return out
}
