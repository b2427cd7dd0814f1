package core

import (
	"math"

	"repro/internal/fourier"
	"repro/internal/la"
	"repro/internal/par"
)

// harmonicPrec is the classic harmonic-balance preconditioner specialized
// to the WaMPDE step Jacobian: freeze JQ and JF at their t1-average, which
// makes the collocation Jacobian block-circulant along t1; the DFT then
// decouples it into one small complex n×n system per harmonic,
//
//	M_h = (2πi·h·ω + 1/h2)·J̄Q + θ·J̄F,
//
// factored once per rebuild. Application costs one FFT/IFFT per state plus
// N1 small solves — O(N1·(n·log N1 + n²)) — independent of the coupling
// density, which is what makes the paper's "iterative linear techniques
// [Saa96]" scale to large systems. The bordered ω column and phase row are
// left to the Krylov iteration (a rank-2 correction).
//
// The struct owns its factor storage and application scratch, so a rebuild
// refactors in place and a preconditioner application allocates nothing.
type harmonicPrec struct {
	n1, n int
	scale []float64 // row scales, snapshot at build time (see buildHarmonicPrec)
	facts []*la.CLU // one per harmonic bin (length n1), refactored in place
	spec  [][]complex128
	xh    []complex128 // per-chunk bin-solve scratch, lo-indexed
	bh    []complex128
}

// harmonicPrecFor returns the harmonic preconditioner at the current
// iterate, recycling the previous build — across Newton iterations and
// accepted t2 steps — while the step size, integrator weight, and ω stay
// where they were when it was factored (ω within omegaDriftTol). A slightly
// stale preconditioner only costs extra Krylov iterations; the Newton
// tolerance is unaffected.
func (a *envAssembler) harmonicPrecFor(omega, h, theta float64) (*harmonicPrec, error) {
	if a.prec != nil && h == a.precH && theta == a.precTheta &&
		abs(omega-a.precOmega) <= omegaDriftTol*abs(a.precOmega) {
		return a.prec, nil
	}
	if err := a.buildHarmonicPrec(omega, h, theta); err != nil {
		return nil, err
	}
	a.precH, a.precTheta, a.precOmega = h, theta, omega
	return a.prec, nil
}

// buildHarmonicPrec (re)factors the per-harmonic systems into the
// persistent workspace, allocating only on the first call. It averages the
// per-point device Jacobian slots, which the caller (matFreeOpFor) has just
// filled at the current iterate and inputs.
func (a *envAssembler) buildHarmonicPrec(omega, h, theta float64) error {
	n1, n := a.g.n1, a.g.n
	if a.prec == nil {
		a.prec = &harmonicPrec{
			n1: n1, n: n,
			scale: make([]float64, len(a.g.scale)),
			facts: make([]*la.CLU, n1),
			spec:  make([][]complex128, n),
			xh:    make([]complex128, n1*n),
			bh:    make([]complex128, n1*n),
		}
		for bin := range a.prec.facts {
			a.prec.facts[bin] = la.NewCLU(n)
		}
		for i := range a.prec.spec {
			a.prec.spec[i] = make([]complex128, n1)
		}
	}
	// Snapshot the row scales: a.scale is recomputed in place every t2 step,
	// and a preconditioner that read it live would be a silently different
	// operator M⁻¹ each step, invisible to the ω-drift gate that decides when
	// to rebuild it. A slightly stale scale only costs Krylov iterations,
	// like any other staleness the gate tolerates.
	copy(a.prec.scale, a.g.scale)
	if a.jqAvg == nil {
		a.jqAvg = la.NewDense(n, n)
		a.jfAvg = la.NewDense(n, n)
		a.precMs = make([]*la.CDense, n1)
		for lo := 0; lo < n1; lo += ptGrain {
			a.precMs[lo] = la.NewCDense(n, n)
		}
	}
	// Average the device Jacobian slots serially in ascending j order so the
	// float accumulation is worker-count independent.
	a.jqAvg.Zero()
	a.jfAvg.Zero()
	for j := 0; j < n1; j++ {
		a.jqAvg.AddScaled(1/float64(n1), a.g.jqs[j])
		a.jfAvg.AddScaled(1/float64(n1), a.g.jfs[j])
	}
	jqAvg, jfAvg := a.jqAvg, a.jfAvg
	p := a.prec
	// One small complex refactorization per harmonic bin, spread over the
	// pool; a chunk starting at bin lo assembles into its own scratch matrix.
	return par.ForErr(n1, ptGrain, func(lo, hi int) error {
		m := a.precMs[lo]
		for bin := lo; bin < hi; bin++ {
			hh := fourier.HarmonicIndex(bin, n1)
			lam := complex(1/h, 2*math.Pi*float64(hh)*omega)
			for r := 0; r < n; r++ {
				for c := 0; c < n; c++ {
					m.Set(r, c, lam*complex(jqAvg.At(r, c), 0)+complex(theta*jfAvg.At(r, c), 0))
				}
			}
			if err := p.facts[bin].FactorInto(m); err != nil {
				return err
			}
		}
		return nil
	})
}

// Precondition applies z ≈ J⁻¹·r for the row-scaled system: it first
// unscales r, transforms to the harmonic domain, solves per harmonic, and
// transforms back. The trailing (ω) entry is passed through. All scratch is
// owned by the struct, so repeated applications allocate nothing.
func (p *harmonicPrec) Precondition(r, z []float64) {
	n1, n := p.n1, p.n
	// Gather per-state sample vectors, unscaling rows, then run the batched
	// forward transforms on the worker pool.
	spec := p.spec
	par.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := spec[i]
			for j := 0; j < n1; j++ {
				row[j] = complex(r[j*n+i]*p.scale[j*n+i], 0)
			}
		}
	})
	fourier.FFTRows(spec)
	// Per-bin solves touch disjoint spec columns; a chunk starting at bin lo
	// owns the n-slot scratch at lo·n.
	par.For(n1, ptGrain, func(lo, hi int) {
		xh := p.xh[lo*n : lo*n+n]
		bh := p.bh[lo*n : lo*n+n]
		for bin := lo; bin < hi; bin++ {
			for i := 0; i < n; i++ {
				bh[i] = spec[i][bin]
			}
			p.facts[bin].Solve(bh, xh)
			for i := 0; i < n; i++ {
				spec[i][bin] = xh[i]
			}
		}
	})
	fourier.IFFTRows(spec)
	par.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := spec[i]
			for j := 0; j < n1; j++ {
				z[j*n+i] = real(row[j])
			}
		}
	})
	if len(r) > n1*n {
		z[n1*n] = r[n1*n]
	}
}
