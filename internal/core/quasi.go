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

// qpGrain is the number of bivariate grid points one parallel chunk handles
// in the quasiperiodic solver's residual and Jacobian assembly.
const qpGrain = 16

// QPOptions configures the quasiperiodic WaMPDE solver of §4.1.
type QPOptions struct {
	N1, N2 int       // grid sizes, defaults 15×15
	Phase  PhaseKind // default PhaseDerivativeZero
	Anchor float64
	Newton newton.Options
	// ChordNewton reuses the global Jacobian factorization across Newton
	// iterations while the residual contracts (see newton.Options.
	// JacobianReuse). Off by default: the quasiperiodic solve is one global
	// Newton iteration from a possibly rough guess, where fresh Jacobians
	// buy robustness.
	ChordNewton bool
	// Linear selects the inner linear solver. LinearMatrixFree replaces the
	// global dense LU (O((N1·N2·n)³) per factorization) and never assembles
	// the global Jacobian at all — GMRESDR applies it through the
	// spectral-differentiation FFT plans and the per-point device blocks
	// (see SpectralOp), under a block-Jacobi preconditioner whose blocks are
	// the per-t2-line systems, built directly from the device slots. Memory
	// drops from O((N1·N2·n)²) to O(N1·N2·n) — the scalable path for fine
	// grids.
	Linear   LinearKind
	GMRESTol float64 // default 1e-10
	// RecycleKrylov (LinearMatrixFree only) carries a GCRO-DR deflation
	// space across the global solve's GMRES calls; see
	// EnvelopeOptions.RecycleKrylov. The space is dropped at every Jacobian
	// refresh (it is exact only for the linearization it was harvested
	// from), so it pays inside factorization-reuse windows — i.e. with
	// ChordNewton, where one linearization serves several Newton iterations.
	RecycleKrylov bool
	// Ctx, when non-nil, makes the solve cancelable: it is checked once per
	// Newton iteration. On cancellation Quasiperiodic returns the best iterate
	// reached so far as a partial QPResult together with a
	// solverr.KindCanceled error.
	Ctx context.Context
	// Warm, when non-nil, is the sweep continuation carrier. The
	// quasiperiodic solve adopts the carried GMRESDR deflation space (via
	// krylov.Recycler.Handoff, so the stale space runs verified for one
	// linearization window before the usual refresh-invalidation contract
	// takes over) and, on success, hands its own space back for the next
	// sweep point. Only the recycler payload participates: the line-block
	// factors are grid-shaped and rebuilt per linearization anyway.
	Warm *WarmStart
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
	if o.GMRESTol <= 0 {
		o.GMRESTol = 1e-10
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
// quasiperiodic solution).
func GuessFromEnvelope(res *EnvelopeResult, t2Period float64, n1, n2 int) (*QPGuess, error) {
	if len(res.T2) < 2 {
		return nil, solverr.New(solverr.KindBadInput, "core.quasi", "envelope result too short for a QP guess")
	}
	tEnd := res.T2[len(res.T2)-1]
	t0 := tEnd - t2Period
	if t0 < res.T2[0] {
		return nil, solverr.New(solverr.KindBadInput, "core.quasi",
			"envelope run (%.3g) shorter than one slow period (%.3g)", tEnd-res.T2[0], t2Period)
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
// the trivial equilibrium always solves the system).
func Quasiperiodic(sys dae.Autonomous, t2Period float64, guess *QPGuess, opt QPOptions) (*QPResult, error) {
	opt = opt.withDefaults()
	if t2Period <= 0 {
		return nil, solverr.New(solverr.KindBadInput, "core.quasi", "T2 must be positive")
	}
	if guess == nil {
		return nil, solverr.New(solverr.KindBadInput, "core.quasi", "Quasiperiodic requires an initial guess")
	}
	n := sys.Dim()
	N1, N2 := opt.N1, opt.N2
	if len(guess.X) != N2 || len(guess.X[0]) != N1 || len(guess.Omega) != N2 {
		return nil, solverr.New(solverr.KindBadInput, "core.quasi",
			"guess shape mismatch (want %dx%d grid with %d omegas)", N1, N2, N2)
	}
	k := sys.OscVar()
	if k < 0 || k >= n {
		return nil, ErrNeedOscillation
	}
	w, c, err := phaseRow(opt.Phase, N1, opt.Anchor)
	if err != nil {
		return nil, err
	}
	if opt.Phase == PhaseFixValue {
		c = guess.X[0][0][k]
	}

	nx := N1 * N2 * n // state unknowns; then N2 omegas
	total := nx + N2
	z := make([]float64, total)
	for j2 := 0; j2 < N2; j2++ {
		for j1 := 0; j1 < N1; j1++ {
			copy(z[qpIdx(j1, j2, 0, n, N1):qpIdx(j1, j2, 0, n, N1)+n], guess.X[j2][j1])
		}
		z[nx+j2] = guess.Omega[j2]
	}

	us := make([][]float64, N2)
	for j2 := 0; j2 < N2; j2++ {
		us[j2] = make([]float64, sys.NumInputs())
		sys.Input(t2Period*float64(j2)/float64(N2), us[j2])
	}
	d1 := fourier.DiffMatrix(N1)
	d2 := fourier.DiffMatrix(N2)

	q := make([]float64, nx)
	computeQ := func(z []float64) {
		par.For(N1*N2, qpGrain, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				sys.Q(z[p*n:(p+1)*n], q[p*n:(p+1)*n])
			}
		})
	}

	// The residual splits by t2 line: line j2 owns rows for its N1 grid
	// points plus its phase row, so lines evaluate in parallel with
	// chunk-private F scratch (the n-slot at lo·n of a shared buffer, hoisted
	// out of the hot loop); the per-row arithmetic order is unchanged.
	fScr := make([]float64, N2*n)
	rawResidual := func(z, r []float64) {
		computeQ(z)
		par.For(N2, 1, func(lo, hi int) {
			scr := fScr[lo*n : lo*n+n]
			for j2 := lo; j2 < hi; j2++ {
				omega := z[nx+j2]
				for j1 := 0; j1 < N1; j1++ {
					base := qpIdx(j1, j2, 0, n, N1)
					sys.F(z[base:base+n], us[j2], scr)
					for i := 0; i < n; i++ {
						acc := scr[i]
						for m := 0; m < N1; m++ {
							if wgt := d1[j1*N1+m]; wgt != 0 {
								acc += omega * wgt * q[qpIdx(m, j2, i, n, N1)]
							}
						}
						for m := 0; m < N2; m++ {
							if wgt := d2[j2*N2+m]; wgt != 0 {
								acc += wgt / t2Period * q[qpIdx(j1, m, i, n, N1)]
							}
						}
						r[base+i] = acc
					}
				}
				ph := -c
				for j1 := 0; j1 < N1; j1++ {
					ph += w[j1] * z[qpIdx(j1, j2, k, n, N1)]
				}
				r[nx+j2] = ph
			}
		})
	}

	// Row scales from the guess, making Newton's tolerance relative.
	scale := make([]float64, total)
	{
		r0 := make([]float64, total)
		rawResidual(z, r0)
		computeQ(z)
		maxScale := 0.0
		for j2 := 0; j2 < N2; j2++ {
			omega := z[nx+j2]
			for j1 := 0; j1 < N1; j1++ {
				base := qpIdx(j1, j2, 0, n, N1)
				for i := 0; i < n; i++ {
					s := abs(r0[base+i]) + abs(omega*q[base+i])*float64(N1)/2
					scale[base+i] = s
					if s > maxScale {
						maxScale = s
					}
				}
			}
			s := 0.0
			for j1 := 0; j1 < N1; j1++ {
				s += abs(w[j1]) * (1 + abs(z[qpIdx(j1, j2, k, n, N1)]))
			}
			if s == 0 {
				s = 1
			}
			scale[nx+j2] = s
		}
		// Relative floor for algebraic rows (see the envelope solver).
		floor := 1e-6 * maxScale
		if floor == 0 {
			floor = 1
		}
		for i := 0; i < nx; i++ {
			if scale[i] < floor {
				scale[i] = floor
			}
		}
	}

	// Per-point device Jacobian slots, reused across Newton iterations.
	jqs := make([]*la.Dense, N1*N2)
	jfs := make([]*la.Dense, N1*N2)
	for p := range jqs {
		jqs[p] = la.NewDense(n, n)
		jfs[p] = la.NewDense(n, n)
	}
	eval := func(z, r []float64) error {
		rawResidual(z, r)
		for i := range r {
			r[i] /= scale[i]
		}
		return nil
	}
	// The Jacobian assembly is row-centric so grid points fill their own row
	// blocks in parallel: the spectral differentiation diagonals are exactly
	// zero, so every matrix element has a single contributor and gathering
	// along rows is bitwise identical to scattering from columns. The matrix
	// and its LU workspace persist across refreshes; assembly accumulates, so
	// the rows are zeroed (in disjoint parallel chunks) first. On the
	// matrix-free path neither exists — the O(total²) allocation is the wall
	// that path removes.
	var jj *la.Dense
	var flu *la.LU
	var mfOp *qpSpectralOp
	var lineBlocks []*la.Dense
	if opt.Linear == LinearMatrixFree {
		mfOp = newQPSpectralOp(n, N1, N2, k, t2Period, d1, d2, w, jqs, jfs)
		// One preconditioner block per t2 line, plus an identity block for
		// the N2 trailing ω rows (their diagonal block is structurally zero;
		// the Krylov iteration resolves the bordering).
		lineBlocks = make([]*la.Dense, N2+1)
		for j2 := 0; j2 < N2; j2++ {
			lineBlocks[j2] = la.NewDense(N1*n, N1*n)
		}
		id := la.NewDense(N2, N2)
		for j2 := 0; j2 < N2; j2++ {
			id.Set(j2, j2, 1)
		}
		lineBlocks[N2] = id
	} else {
		jj = la.NewDense(total, total)
		flu = la.NewLU(total)
	}
	var st Stats
	lad := newLinearLadder(opt.GMRESTol, opt.RecycleKrylov && opt.Linear == LinearMatrixFree, opt.Warm, &st)
	jac := func(z []float64) (newton.LinearSolve, error) {
		if opt.Linear == LinearMatrixFree {
			lad.refresh()
			// Matrix-free linearization: refresh q and the per-point device
			// blocks (the same parallel kernels the dense assembly uses),
			// snapshot the operator, and build the line-block preconditioner
			// straight from the slots — no global matrix is touched.
			computeQ(z)
			par.For(N1*N2, qpGrain, func(lo, hi int) {
				for p := lo; p < hi; p++ {
					x := z[p*n : (p+1)*n]
					sys.JQ(x, jqs[p])
					sys.JF(x, us[p/N1], jfs[p])
				}
			})
			mfOp.build(z, q, scale)
			// Line block j2: ω_{j2}·D1⊗JQ plus the JF point diagonal, rows
			// scaled like the full system (the D2 diagonal is exactly zero,
			// so no t2 term lands inside a line's own block).
			par.For(N2, 1, func(lo, hi int) {
				for j2 := lo; j2 < hi; j2++ {
					blk := lineBlocks[j2]
					omega := z[nx+j2]
					for j1r := 0; j1r < N1; j1r++ {
						for r := 0; r < n; r++ {
							row := blk.Row(j1r*n + r)
							for i := range row {
								row[i] = 0
							}
						}
						for j1 := 0; j1 < N1; j1++ {
							wgt := omega * d1[j1r*N1+j1]
							if wgt == 0 {
								continue
							}
							jq := jqs[j2*N1+j1]
							for r := 0; r < n; r++ {
								row := blk.Row(j1r*n + r)
								qrow := jq.Row(r)
								for c := 0; c < n; c++ {
									row[j1*n+c] += wgt * qrow[c]
								}
							}
						}
						jf := jfs[j2*N1+j1r]
						for r := 0; r < n; r++ {
							row := blk.Row(j1r*n + r)
							frow := jf.Row(r)
							for c := 0; c < n; c++ {
								row[j1r*n+c] += frow[c]
							}
						}
						for r := 0; r < n; r++ {
							s := scale[qpIdx(j1r, j2, r, n, N1)]
							row := blk.Row(j1r*n + r)
							for i := range row {
								row[i] /= s
							}
						}
					}
				}
			})
			prec, err := krylov.NewBlockJacobiFromBlocks(lineBlocks)
			if err != nil {
				return nil, err
			}
			lad.reset(mfOp, prec, mfOp.assembleSparse)
			return lad, nil
		}
		par.For(total, 64, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				row := jj.Row(r)
				for ccc := range row {
					row[ccc] = 0
				}
			}
		})
		computeQ(z)
		par.For(N1*N2, qpGrain, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				x := z[p*n : (p+1)*n]
				sys.JQ(x, jqs[p])
				sys.JF(x, us[p/N1], jfs[p])
			}
		})
		par.For(N1*N2, qpGrain, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				j2r, j1r := p/N1, p%N1
				rowBase := p * n
				omega := z[nx+j2r]
				// t1 line: cols (j1, j2r) weighted by ω_{j2r}·D1[j1r,j1].
				for j1 := 0; j1 < N1; j1++ {
					wgt := omega * d1[j1r*N1+j1]
					if wgt == 0 {
						continue
					}
					addScaledBlock(jj, rowBase, qpIdx(j1, j2r, 0, n, N1), jqs[j2r*N1+j1], wgt)
				}
				// t2 line: cols (j1r, m) weighted by D2[j2r,m]/T2.
				for m := 0; m < N2; m++ {
					wgt := d2[j2r*N2+m] / t2Period
					if wgt == 0 {
						continue
					}
					addScaledBlock(jj, rowBase, qpIdx(j1r, m, 0, n, N1), jqs[m*N1+j1r], wgt)
				}
				addScaledBlock(jj, rowBase, rowBase, jfs[p], 1)
				// ∂/∂ω_{j2r} column: Σ_{j1} D1[j1r,j1]·q(j1, j2r), accumulated
				// in ascending j1 (the same order as the scatter form).
				for j1 := 0; j1 < N1; j1++ {
					wgt := d1[j1r*N1+j1]
					if wgt == 0 {
						continue
					}
					qb := qpIdx(j1, j2r, 0, n, N1)
					for i := 0; i < n; i++ {
						jj.Add(rowBase+i, nx+j2r, wgt*q[qb+i])
					}
				}
			}
		})
		for j2 := 0; j2 < N2; j2++ {
			for j1 := 0; j1 < N1; j1++ {
				jj.Set(nx+j2, qpIdx(j1, j2, k, n, N1), w[j1])
			}
		}
		par.For(total, 64, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				row := jj.Row(r)
				s := scale[r]
				for ccc := range row {
					row[ccc] /= s
				}
			}
		})
		if err := flu.FactorInto(jj); err != nil {
			return nil, err
		}
		return flu, nil
	}

	nopt := opt.Newton
	nopt.Work = newton.NewWorkspace(total)
	nopt.JacobianReuse = opt.ChordNewton
	// The rescue rungs refresh the Jacobian every iteration, each from the
	// guess, with a fresh linearization: the recycled Krylov space belongs to
	// the iterates that just failed. Continuation starts every t2 line at the
	// t2-averaged input — a constant-bias problem much closer to a plain
	// oscillator — and λ walks the inputs back to their true T2-periodic
	// values.
	rescueOpts := nopt
	rescueOpts.JacobianReuse = false
	var usOrig [][]float64
	var uMean []float64
	nl := &nonlinearLadder{
		stats: &st, chord: opt.ChordNewton, base: rescueOpts,
		z0: make([]float64, total),
		restart: func(r rescueRung) {
			lad.rec.Invalidate()
			if r != rungContinuation {
				return
			}
			usOrig = make([][]float64, N2)
			uMean = make([]float64, sys.NumInputs())
			for j2 := 0; j2 < N2; j2++ {
				usOrig[j2] = append([]float64(nil), us[j2]...)
				for i, v := range us[j2] {
					uMean[i] += v / float64(N2)
				}
			}
		},
		blend: func(lambda float64) {
			for j2 := 0; j2 < N2; j2++ {
				lerp(us[j2], uMean, usOrig[j2], lambda)
			}
		},
		restore: func() {
			for j2 := 0; j2 < N2; j2++ {
				copy(us[j2], usOrig[j2])
			}
		},
	}
	resN, err := nl.solve(newton.Problem{N: total, Eval: eval, Jacobian: jac}, z, nopt)
	build := func() *QPResult {
		lad.reportRecycler()
		res := &QPResult{N1: N1, N2: N2, N: n, T2: t2Period, X: make([][][]float64, N2), Omega: make([]float64, N2), Stats: st}
		for j2 := 0; j2 < N2; j2++ {
			res.X[j2] = make([][]float64, N1)
			for j1 := 0; j1 < N1; j1++ {
				base := qpIdx(j1, j2, 0, n, N1)
				res.X[j2][j1] = append([]float64(nil), z[base:base+n]...)
			}
			res.Omega[j2] = z[nx+j2]
		}
		return res
	}
	if err != nil {
		if solverr.IsKind(err, solverr.KindCanceled) {
			// Newton left its best iterate in z; hand it back as the partial
			// result so a deadline still yields something inspectable.
			return build(), err
		}
		return nil, nl.exhausted(err, "core.quasi", resN).WithMsg("quasiperiodic solve failed")
	}
	if serr := checkState("core.quasi", z); serr != nil {
		return nil, serr
	}
	if opt.Warm != nil && lad.rec != nil {
		// Hand the deflation space to the next sweep point.
		opt.Warm.Rec = lad.rec
	}
	return build(), nil
}

func qpIdx(j1, j2, i, n, N1 int) int { return (j2*N1+j1)*n + i }

func addScaledBlock(jj *la.Dense, rowBase, colBase int, blk *la.Dense, w float64) {
	for r := 0; r < blk.Rows; r++ {
		row := jj.Row(rowBase + r)
		brow := blk.Row(r)
		for c := 0; c < blk.Cols; c++ {
			row[colBase+c] += w * brow[c]
		}
	}
}
