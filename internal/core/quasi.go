package core

import (
	"context"

	"repro/internal/dae"
	"repro/internal/fourier"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/newton"
	"repro/internal/par"
	"repro/internal/solverr"
)

// QPOptions configures the quasiperiodic WaMPDE solver of §4.1. Its phase
// condition is PhaseDerivativeZero.
type QPOptions struct {
	N1, N2 int // grid sizes, defaults 15×15
	Newton newton.Options
	// ChordNewton reuses the global Jacobian factorization across Newton
	// iterations while the residual contracts (see newton.Options.
	// JacobianReuse). Off by default: the quasiperiodic solve is one global
	// Newton iteration from a possibly rough guess, where fresh Jacobians
	// buy robustness.
	ChordNewton bool
	// Linear selects the inner linear solver. LinearMatrixFree replaces the
	// global dense LU (O((N1·N2·n)³) per factorization) and never assembles
	// the global Jacobian at all — GMRES applies it through the
	// spectral-differentiation FFT plans and the per-point device blocks
	// (see SpectralOp), under a block-Jacobi preconditioner whose blocks are
	// the per-t2-line systems, built directly from the device slots. Dense
	// memory drops from two (N1·N2·n + N2)² matrices (the Jacobian and its
	// LU) to 2·N2·(N1·n)² entries (one block per t2 line, and block
	// Jacobi's factored copy of each): N2 times less, which still grows
	// with the square of the t1 grid and the state count.
	Linear LinearKind
	// Ctx, when non-nil, makes the solve cancelable: it is checked once per
	// Newton iteration. On cancellation Quasiperiodic returns the best iterate
	// reached so far as a partial QPResult together with a
	// solverr.KindCanceled error.
	Ctx context.Context
}

func (o QPOptions) withDefaults() QPOptions {
	if o.N1 <= 0 {
		o.N1 = 15
	}
	if o.N2 <= 0 {
		o.N2 = 15
	}
	if o.Newton.MaxIter <= 0 {
		o.Newton.MaxIter = 40
	}
	if o.Newton.TolF <= 0 {
		o.Newton.TolF = 1e-8
	}
	if o.Ctx != nil && o.Newton.Ctx == nil {
		o.Newton.Ctx = o.Ctx
	}
	return o
}

// QPGuess is the initial iterate for Quasiperiodic: the bivariate grid and
// the slow-time frequency samples.
type QPGuess struct {
	X     [][][]float64 // [N2][N1][n]
	Omega []float64     // [N2]
}

// GuessFromEnvelope builds a QP guess by sampling the trailing T2-long
// window of an envelope run (which, after its transient settles, is the
// quasiperiodic solution). A run of exactly one slow period may stop up to
// Envelope's end tolerance short of it; the window then starts at the run's
// first point.
func GuessFromEnvelope(res *EnvelopeResult, t2Period float64, n1, n2 int) (*QPGuess, error) {
	if len(res.T2) < 2 {
		return nil, solverr.New(solverr.KindBadInput, "core.quasi", "envelope result too short for a QP guess")
	}
	tEnd := res.T2[len(res.T2)-1]
	t0 := tEnd - t2Period
	if t0 < res.T2[0] {
		if res.T2[0]-t0 > t2EndTol*t2Period {
			return nil, solverr.New(solverr.KindBadInput, "core.quasi",
				"envelope run (%.3g) shorter than one slow period (%.3g)", tEnd-res.T2[0], t2Period)
		}
		t0 = res.T2[0]
	}
	g := &QPGuess{X: make([][][]float64, n2), Omega: make([]float64, n2)}
	n := res.N
	for j2 := 0; j2 < n2; j2++ {
		tt := t0 + t2Period*float64(j2)/float64(n2)
		g.Omega[j2] = res.OmegaAt(tt)
		g.X[j2] = make([][]float64, n1)
		// Align phases: shift each slice so the envelope's warping phase at
		// tt maps t1=0 consistently (the phase condition re-pins it anyway).
		k := res.segment(tt)
		s := (tt - res.T2[k]) / (res.T2[k+1] - res.T2[k])
		for j1 := 0; j1 < n1; j1++ {
			tau := float64(j1) / float64(n1)
			g.X[j2][j1] = make([]float64, n)
			for i := 0; i < n; i++ {
				v0 := fourier.Interpolate(res.Slice(k, i), tau)
				v1 := fourier.Interpolate(res.Slice(k+1, i), tau)
				g.X[j2][j1][i] = (1-s)*v0 + s*v1
			}
		}
	}
	return g, nil
}

// Quasiperiodic solves the WaMPDE with periodic boundary conditions on both
// axes (§4.1): x̂ is (1, T2)-periodic and ω(t2) is T2-periodic. The forcing
// inputs must be T2-periodic. guess supplies the initial iterate (required:
// the trivial equilibrium always solves the system). A solve that converges
// onto a non-positive ω on some line fails as KindStagnation.
func Quasiperiodic(sys dae.Autonomous, t2Period float64, guess *QPGuess, opt QPOptions) (*QPResult, error) {
	const stage = "core.quasi"
	opt = opt.withDefaults()
	if err := solverr.CheckPositive(stage, "T2", t2Period); err != nil {
		return nil, err
	}
	if guess == nil {
		return nil, solverr.New(solverr.KindBadInput, stage, "Quasiperiodic requires an initial guess")
	}
	if err := checkGuess(stage, guess.X, guess.Omega, opt.N1, opt.N2, sys.Dim()); err != nil {
		return nil, err
	}
	bord, err := phaseBorder(sys, PhaseDerivativeZero, opt.N1, guess.X[0][0])
	if err != nil {
		return nil, err
	}
	return quasiperiodic(sys, bord, lineInputs{sys: sys}, guess.X, guess.Omega, t2Period, opt)
}

// checkGuess validates a guess before any solve: n2 lines of n1 finite
// n-state points, and n2 positive finite frequencies.
func checkGuess(stage string, x [][][]float64, omegas []float64, n1, n2, n int) error {
	for _, w := range omegas {
		if err := solverr.CheckPositive(stage, "guess ω", w); err != nil {
			return err
		}
	}
	shape := len(x) == n2 && len(omegas) == n2
	for _, line := range x {
		shape = shape && len(line) == n1
		for _, p := range line {
			shape = shape && len(p) == n
			if i := solverr.FirstNonFinite(p); i >= 0 {
				return solverr.New(solverr.KindBadInput, stage, "guess has non-finite value %v", p[i])
			}
		}
	}
	if !shape {
		return solverr.New(solverr.KindBadInput, stage,
			"guess shape mismatch (want %d lines of %d points of %d states, %d ω)", n2, n1, n, n2)
	}
	return nil
}

// quasiperiodic runs the global Newton solve of Quasiperiodic and
// ForcedQuasiperiodic on an N1×N2 periodic grid with the given border and
// inputs, from the guess x0 (nil: zero) and omegas. What is the driver's
// own: the row scales from the guess, the line-block preconditioner and the
// inputs continuation starts from.
func quasiperiodic(sys dae.System, bord border, in lineInputs, x0 [][][]float64, omegas []float64, t2Period float64, opt QPOptions) (*QPResult, error) {
	n := sys.Dim()
	N1, N2 := opt.N1, opt.N2
	matFree := opt.Linear == LinearMatrixFree
	g := newGrid(sys, N1, N2, newPeriodicAxis(N2, t2Period), bord, in, !matFree)
	nx := g.nx // state unknowns; then N2 omegas
	total := nx + N2
	z := make([]float64, total)
	for j2, line := range x0 {
		for j1, x := range line {
			copy(z[(j2*N1+j1)*n:], x)
		}
	}
	copy(z[nx:], omegas)
	for j2 := 0; j2 < N2; j2++ {
		in.fill(g.us, N1, j2, t2Period*float64(j2)/float64(N2))
	}

	// Row scales from the guess, making Newton's tolerance relative: the
	// raw residual (unit scales) plus the size of the t1 derivative term.
	la.Fill(g.scale, 1)
	r0 := make([]float64, total)
	g.residual(z, r0)
	maxScale := 0.0
	for i := 0; i < nx; i++ {
		s := abs(r0[i]) + abs(z[nx+i/(N1*n)]*g.q[i])*float64(N1)/2
		g.scale[i] = s
		if s > maxScale {
			maxScale = s
		}
	}
	for j2 := 0; j2 < N2; j2++ {
		g.scale[nx+j2] = g.borderScale(z, j2)
	}
	// Relative floor for algebraic rows (see the envelope solver). A row
	// the guess says nothing about — exactly zero, as every unsourced row
	// of a zero start is — takes the largest scale instead: the floor would
	// demand its residual to machine precision of the largest row.
	floor := 1e-6 * maxScale
	if floor == 0 {
		floor = 1
	}
	for i := 0; i < nx; i++ {
		switch s := g.scale[i]; {
		case s == 0 && maxScale > 0:
			g.scale[i] = maxScale
		case s < floor:
			g.scale[i] = floor
		}
	}

	// The matrix-free path never assembles the global Jacobian — the
	// O(total²) allocation is the wall it removes — and preconditions with
	// one block per t2 line, plus an identity block for the N2 trailing ω
	// rows (their diagonal block is structurally zero; the Krylov iteration
	// resolves the bordering).
	var prec func() (krylov.Preconditioner, error)
	if matFree {
		lineBlocks := make([]*la.Dense, N2+1)
		for j2 := 0; j2 < N2; j2++ {
			lineBlocks[j2] = la.NewDense(N1*n, N1*n)
		}
		lineBlocks[N2] = la.Identity(N2)
		// Line block j2 is the line's own rows and columns, ω_{j2}·D1⊗JQ +
		// JF, row-scaled like the full system: block Jacobi drops the D2
		// coupling between lines and the ω border.
		fillLines := func(lo, hi int) {
			for j2 := lo; j2 < hi; j2++ {
				blk := lineBlocks[j2]
				for j1 := 0; j1 < N1; j1++ {
					p := j2*N1 + j1
					g.lineRows(p, blk, j1*n, 0, g.op.omegas[j2])
					scaleRows(blk, j1*n, g.scale[p*n:(p+1)*n])
				}
			}
		}
		prec = func() (krylov.Preconditioner, error) {
			par.For(N2, 1, fillLines)
			return krylov.NewBlockJacobiFromBlocks(lineBlocks)
		}
	}
	// Continuation starts every t2 line at the t2-averaged input — a
	// constant-bias problem much closer to a plain oscillator — and λ walks
	// the inputs back to their true T2-periodic values.
	meanInputs := func(dst []float64) {
		line := len(g.us) / N2
		clear(dst)
		for i, v := range g.us {
			dst[i%line] += v / float64(N2)
		}
		for i := line; i < len(dst); i++ {
			dst[i] = dst[i%line]
		}
	}
	var st Stats
	gs := newGridSolver(g, &st, "core.quasi", opt.Newton, prec, meanInputs)
	first := opt.Newton
	first.JacobianReuse = opt.ChordNewton
	_, err := gs.solve(z, first)
	if err != nil && !solverr.IsKind(err, solverr.KindCanceled) {
		return nil, err
	}
	// A canceled solve left Newton's best iterate in z; it goes back as the
	// partial result so a deadline still yields something inspectable.
	res := &QPResult{N1: N1, N2: N2, N: n, T2: t2Period, X: make([][][]float64, N2),
		Omega: append([]float64(nil), z[nx:]...), Stats: st}
	for j2 := 0; j2 < N2; j2++ {
		res.X[j2] = make([][]float64, N1)
		for j1 := 0; j1 < N1; j1++ {
			base := (j2*N1 + j1) * n
			res.X[j2][j1] = append([]float64(nil), z[base:base+n]...)
		}
	}
	return res, err
}
