package core

import (
	"math"

	"repro/internal/fourier"
	"repro/internal/par"
	"repro/internal/sparse"
)

// This file implements the matrix-free linear-solve path (LinearMatrixFree):
// the bordered Jacobian of a collocation grid is never materialized. Its
// action on the rows of point p on line l,
//
//	J·[δx; δω] = scale⁻¹·( T·JQ·δx + θ·ω_l·(D1⊗I)·JQ·δx + θ·JF·δx
//	              + θ·(D1·q)·δω_l ;  border·[δx; δω] )
//
// applies the per-point device Jacobians block-diagonally, D1 through the
// cached FFT plans in O(n·N1·log N1), and the t2 axis's term T (JQ·δx/h for
// an envelope step, an FFT along N2 on the periodic grid). The
// preconditioners only need the averaged or per-line blocks, and the
// ladder's direct-rescue rung assembles the same entries sparsely and
// factors them with the sparse LU, far from the O((N1·n)³) dense wall. See
// DESIGN.md, "Matrix-free operator".

// SpectralOp is the matrix-free bordered Jacobian of a grid: one envelope
// t2 step (one line) or the global quasiperiodic system (N2 lines). It
// snapshots everything the dense assembly freezes at factorization time —
// the row scales, the D1·q border columns and the per-line ω — so
// chord-Newton reuse semantics are identical to the dense path; the
// per-point JQ/JF slots are the grid's, rewritten only when the operator is
// rebuilt at a new linearization. The t2 axis is read live: drivers change
// it (a new step size or integrator weight) only together with a new
// linearization, which the envelope's chord gates enforce.
type SpectralOp struct {
	g             *grid
	omegas, scale []float64 // per-line ω and row scales, snapshot at build
	dq            []float64 // D1·q at the linearization point, owned

	// Apply scratch: the block products JQ·x (overwritten in place by its
	// t2 term) and JF·x, and the per-(line, state) spectral rows along t1.
	qv, jfv []float64
	spec    [][]complex128 // lines·n rows × n1

	// Cached parallel kernels (see grid: closures handed to par.For escape,
	// so they are built once and fed through the fields below).
	blockFn, gatherFn, combineFn func(lo, hi int)
	ax, ay                       []float64
}

func newSpectralOp(g *grid) *SpectralOp {
	n, n1, nx := g.n, g.n1, g.nx
	blk := make([]float64, 2*nx)
	op := &SpectralOp{
		g:      g,
		omegas: make([]float64, g.lines),
		scale:  make([]float64, nx+g.lines),
		dq:     make([]float64, nx),
		qv:     blk[:nx],
		jfv:    blk[nx:],
		spec:   make([][]complex128, g.lines*n),
	}
	for i := range op.spec {
		op.spec[i] = make([]complex128, n1)
	}
	op.blockFn = func(lo, hi int) {
		x := op.ax
		for p := lo; p < hi; p++ {
			xp := x[p*n : (p+1)*n]
			g.jqs[p].MulVec(xp, op.qv[p*n:(p+1)*n])
			g.jfs[p].MulVec(xp, op.jfv[p*n:(p+1)*n])
		}
	}
	// spec row l·n+i holds state i along the t1 axis of line l.
	op.gatherFn = func(lo, hi int) {
		for rr := lo; rr < hi; rr++ {
			l, i := rr/n, rr%n
			row := op.spec[rr]
			for j := 0; j < n1; j++ {
				row[j] = complex(op.qv[(l*n1+j)*n+i], 0)
			}
		}
	}
	op.combineFn = func(lo, hi int) {
		x, y := op.ax, op.ay
		theta := g.t2.theta()
		for p := lo; p < hi; p++ {
			l, j := p/n1, p%n1
			omega, domega := op.omegas[l], x[nx+l]
			for r := 0; r < n; r++ {
				idx := p*n + r
				y[idx] = (op.qv[idx] + theta*op.jfv[idx] +
					theta*omega*real(op.spec[l*n+r][j]) +
					theta*op.dq[idx]*domega) / op.scale[idx]
			}
		}
	}
	return op
}

// operator (re)builds the grid's matrix-free operator at the iterate z: it
// samples q, refreshes the per-point device Jacobian slots (the same
// parallel kernels the dense assembly uses), computes the D1·q border
// columns and snapshots the row scales and ω. No dense matrix is touched.
func (g *grid) operator(z []float64) *SpectralOp {
	if g.op == nil {
		g.op = newSpectralOp(g)
	}
	op := g.op
	g.linearize(z)
	g.d1q(g.q, op.dq)
	copy(op.scale, g.scale)
	copy(op.omegas, z[g.nx:])
	return op
}

// Dim implements krylov.Operator.
func (op *SpectralOp) Dim() int { return op.g.nx + op.g.lines }

// Apply implements krylov.Operator: y = J·x without forming J. The spectral
// terms run through the cached FFT plans with DiffSamples' convention
// (i·2πk symbol, unpaired Nyquist bin zeroed), so they match the dense
// DiffMatrix application to roundoff; the t2 pass transforms along N2 only
// on a periodic grid. Every other term is evaluated with the same arithmetic
// as the dense row assembly. All chunk layouts are grain-only, so the
// product is bitwise worker-count independent.
func (op *SpectralOp) Apply(x, y []float64) {
	g := op.g
	op.ax, op.ay = x, y
	par.For(g.points(), ptGrain, op.blockFn)
	par.For(len(op.spec), 1, op.gatherFn)
	fourier.FFTRows(op.spec)
	spectralDiffRows(op.spec, g.n1)
	fourier.IFFTRows(op.spec)
	g.t2.apply(g, op.qv, op.qv)
	par.For(g.points(), ptGrain, op.combineFn)
	for l := 0; l < g.lines; l++ {
		y[g.nx+l] = g.borderDot(l, x, 0) / op.scale[g.nx+l]
	}
}

// assembleSparse emits the bordered Jacobian's nonzero entries — the same
// values the operator applies — into tr, for the supervision ladder's
// sparse-LU direct-rescue rung. It uses the dense D1 (not the FFT) so the
// factored matrix is the exact dense Jacobian; the ω columns and border
// rows are emitted unconditionally to keep the symbolic pattern stable
// across refactorizations.
func (op *SpectralOp) assembleSparse(tr *sparse.Triplet) {
	g := op.g
	n, n1, nx := g.n, g.n1, g.nx
	theta := g.t2.theta()
	for p := 0; p < g.points(); p++ {
		j := p % n1
		tw := theta * op.omegas[p/n1]
		jq := g.jqs[p]
		for r := 0; r < n; r++ {
			for c, v := range jq.Row(r) {
				if v == 0 {
					continue
				}
				g.t2.emitJQ(g, p, r, c, v, op.scale, tr)
				for jr := 0; jr < n1; jr++ {
					wgt := tw * g.d1[jr*n1+j]
					if wgt == 0 {
						continue
					}
					row := (p-j+jr)*n + r
					tr.Add(row, p*n+c, wgt*v/op.scale[row])
				}
			}
		}
		for r := 0; r < n; r++ {
			row := p*n + r
			for c, v := range g.jfs[p].Row(r) {
				if v != 0 {
					tr.Add(row, p*n+c, theta*v/op.scale[row])
				}
			}
			tr.Add(row, nx+p/n1, theta*op.dq[row]/op.scale[row])
		}
	}
	for l := 0; l < g.lines; l++ {
		for t, w := range g.bord.w {
			tr.Add(nx+l, g.bcol(l, t), w/op.scale[nx+l])
		}
	}
}

// spectralDiffRows applies the period-1 spectral differentiation symbol
// i·2πk to FFT'd rows in place, zeroing the unpaired Nyquist bin of
// even-length rows — exactly fourier.DiffSamples' convention. Rows are
// independent; the per-bin multiply is exact, so any chunking is bitwise
// deterministic.
func spectralDiffRows(rows [][]complex128, m int) {
	par.For(len(rows), 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := rows[r]
			for k := range row {
				if m%2 == 0 && k == m/2 {
					row[k] = 0
					continue
				}
				row[k] *= complex(0, 2*math.Pi*float64(fourier.HarmonicIndex(k, m)))
			}
		}
	})
}
