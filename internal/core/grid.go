package core

import (
	"repro/internal/dae"
	"repro/internal/fourier"
	"repro/internal/la"
	"repro/internal/solverr"
	"repro/internal/sparse"
)

// grid is the collocation grid under every multi-time solve (paper §4): n1
// t1 points on each of `lines` t2 lines — one line for an envelope step, N2
// periodic lines for a quasiperiodic solve. The unknowns are z = [x̂; ω]:
// point p = l·n1+j (line l, t1 index j) owns the n states z[p·n:(p+1)·n]
// and line l's frequency sits at z[nx+l]. Row p·n+i is the collocation
// equation of state i at point p,
//
//	T(q)ₚ + θ·(ω_l·(D1·q)ₚ + f(xₚ, uₚ)) = 0,
//
// where the t2 axis supplies T and θ, and row nx+l is line l's border. The
// grid owns the residual, the dense row assembly, the matrix-free operator
// and the sparse emission; a gridSolver runs Newton on it. Drivers own the
// row scales, the preconditioners and the inputs continuation starts from.
type grid struct {
	sys              dae.System
	n1, n, lines, nx int
	d1               []float64 // t1 spectral differentiation (period 1)
	t2               t2Axis
	bord             border
	// Inputs: point p reads slot p/uDiv of us, nIn values per slot — one
	// slot per line (uDiv = n1) or one per point (uDiv = 1).
	us        []float64
	nIn, uDiv int
	scale     []float64 // row scales, written by the driver

	// q(x), ω·D1·q + f and D1·q at the last evaluation; dq shares rhs's
	// storage, as the next residual rewrites both.
	q, rhs, dq []float64
	fBuf       []float64 // one point's F evaluation
	jqs, jfs   []*la.Dense
	jj         *la.Dense // dense Jacobian; nil on the matrix-free path
	op         *SpectralOp
}

// newGrid builds a grid of `lines` lines of n1 points, with the input slots
// in fills. Only the dense path allocates the (nx+lines)² Jacobian: the
// matrix-free path exists to avoid it.
func newGrid(sys dae.System, n1, lines int, t2 t2Axis, bord border, in lineInputs, dense bool) *grid {
	n, nIn := sys.Dim(), sys.NumInputs()
	nx := lines * n1 * n
	uDiv := n1
	if in.input2 != nil {
		uDiv = 1
	}
	g := &grid{
		sys: sys, n1: n1, n: n, lines: lines, nx: nx,
		d1: fourier.DiffMatrix(n1), t2: t2, bord: bord,
		us: make([]float64, lines*n1/uDiv*nIn), nIn: nIn, uDiv: uDiv,
		scale: make([]float64, nx+lines),
		q:     make([]float64, nx),
		rhs:   make([]float64, nx),
		fBuf:  make([]float64, n),
		jqs:   make([]*la.Dense, lines*n1),
		jfs:   make([]*la.Dense, lines*n1),
	}
	g.dq = g.rhs
	for p := range g.jqs {
		g.jqs[p] = la.NewDense(n, n)
		g.jfs[p] = la.NewDense(n, n)
	}
	if dense {
		g.jj = la.NewDense(nx+lines, nx+lines)
	}
	return g
}

// points is the number of collocation points, lines·n1.
func (g *grid) points() int { return g.lines * g.n1 }

// uAt returns the input slot collocation point p reads.
func (g *grid) uAt(p int) []float64 {
	s := p / g.uDiv
	return g.us[s*g.nIn : (s+1)*g.nIn]
}

// bcol returns line l's column of border term t: state k at point t, or
// the line's ω when k = n1·n.
func (g *grid) bcol(l, t int) int {
	if m := g.n1 * g.n; g.bord.k < m {
		return l*m + t*g.n + g.bord.k
	}
	return g.nx + l
}

// d1Row writes (D1·q)ₚ into dst. Each state sums its weighted samples over
// point p's line from +0 in ascending order, skipping zero weights (so a
// non-finite sample under a zero weight stays out); four states at a time
// accumulate in registers, then a pair, then the last state.
func (g *grid) d1Row(p int, q, dst []float64) {
	n, n1 := g.n, g.n1
	j := p % n1
	line := q[(p-j)*n : (p-j+n1)*n]
	w := g.d1[j*n1 : (j+1)*n1]
	i := 0
	for ; i+4 <= n; i += 4 {
		var a0, a1, a2, a3 float64
		for m, wgt := range w {
			if wgt == 0 {
				continue
			}
			qm := line[m*n+i:][:4]
			a0 += wgt * qm[0]
			a1 += wgt * qm[1]
			a2 += wgt * qm[2]
			a3 += wgt * qm[3]
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = a0, a1, a2, a3
	}
	if i+2 <= n {
		var a0, a1 float64
		for m, wgt := range w {
			if wgt == 0 {
				continue
			}
			qm := line[m*n+i:][:2]
			a0 += wgt * qm[0]
			a1 += wgt * qm[1]
		}
		dst[i], dst[i+1] = a0, a1
		i += 2
	}
	if i < n {
		var a float64
		for m, wgt := range w {
			if wgt != 0 {
				a += wgt * line[m*n+i]
			}
		}
		dst[i] = a
	}
}

// sample evaluates q at every point of x into out.
func (g *grid) sample(x, out []float64) {
	n := g.n
	for p := 0; p < g.points(); p++ {
		g.sys.Q(x[p*n:(p+1)*n], out[p*n:(p+1)*n])
	}
}

// d1q computes (D1⊗I)·q line by line into out.
func (g *grid) d1q(q, out []float64) {
	for p := 0; p < g.points(); p++ {
		g.d1Row(p, q, out[p*g.n:(p+1)*g.n])
	}
}

// rhsAt computes ω_l·(D1·q)ₚ + f(xₚ, uₚ) into out from q, the samples of
// q(x): it fuses each point's spectral row with its F evaluation.
func (g *grid) rhsAt(x, omegas, q, out []float64) {
	n, f := g.n, g.fBuf
	for p := 0; p < g.points(); p++ {
		dst := out[p*n : (p+1)*n]
		g.d1Row(p, q, dst)
		g.sys.F(x[p*n:(p+1)*n], g.uAt(p), f)
		omega := omegas[p/g.n1]
		for i := range dst {
			dst[i] = omega*dst[i] + f[i]
		}
	}
}

// residual writes the row-scaled residual of z into r (the Newton Eval; it
// cannot fail).
func (g *grid) residual(z, r []float64) error {
	nx := g.nx
	g.sample(z[:nx], g.q)
	g.rhsAt(z[:nx], z[nx:], g.q, g.rhs)
	g.t2.residual(g, r[:nx])
	for i := 0; i < nx; i++ {
		r[i] /= g.scale[i]
	}
	for l := 0; l < g.lines; l++ {
		r[nx+l] = g.borderDot(l, z, -g.bord.c) / g.scale[nx+l]
	}
	return nil
}

// borderDot returns acc + Σₜ w[t]·x[bcol(l, t)], summed in term order.
func (g *grid) borderDot(l int, x []float64, acc float64) float64 {
	for t, w := range g.bord.w {
		acc += w * x[g.bcol(l, t)]
	}
	return acc
}

// linearize samples q and refreshes the per-point device Jacobian slots at z.
func (g *grid) linearize(z []float64) {
	n := g.n
	g.sample(z[:g.nx], g.q)
	for p := 0; p < g.points(); p++ {
		xp := z[p*n : (p+1)*n]
		g.sys.JQ(xp, g.jqs[p])
		g.sys.JF(xp, g.uAt(p), g.jfs[p])
	}
}

// jacobian assembles the scaled, bordered dense Jacobian at z.
func (g *grid) jacobian(z []float64) *la.Dense {
	n, n1, nx := g.n, g.n1, g.nx
	jj, theta := g.jj, g.t2.theta()
	g.linearize(z)
	g.d1q(g.q, g.dq)
	for p := 0; p < g.points(); p++ {
		l, r0 := p/n1, p*n
		g.lineRows(p, jj, r0, l*n1*n, z[nx+l])
		g.t2.addCross(g, p, jj, r0)
		for r := 0; r < n; r++ {
			jj.Row(r0 + r)[nx+l] = theta * g.dq[r0+r]
		}
		scaleRows(jj, r0, g.scale[r0:r0+n])
	}
	for l := 0; l < g.lines; l++ {
		row := g.jj.Row(nx + l)
		clear(row)
		for t, w := range g.bord.w {
			row[g.bcol(l, t)] = w
		}
		scaleRows(g.jj, nx+l, g.scale[nx+l:nx+l+1])
	}
	return g.jj
}

// lineRows zeroes point p's n rows of dst (from row r0, the line's first
// state at column c0) and fills its blocks within its own line: the t1
// coupling θ·ω·D1[j,m]·JQ(x_m) and the t2 axis's diagonal block. D1 and D2
// have exactly zero diagonals, so the couplings never land in the diagonal
// block and one kernel serves both grid shapes.
func (g *grid) lineRows(p int, dst *la.Dense, r0, c0 int, omega float64) {
	n, n1 := g.n, g.n1
	j := p % n1
	for r := 0; r < n; r++ {
		clear(dst.Row(r0 + r))
	}
	tw := g.t2.theta() * omega
	for m := 0; m < n1; m++ {
		wgt := tw * g.d1[j*n1+m]
		if wgt == 0 {
			continue
		}
		axpyBlock(dst, r0, c0+m*n, g.jqs[p-j+m], wgt)
	}
	jq, jf := g.jqs[p], g.jfs[p]
	for r := 0; r < n; r++ {
		g.t2.diagRow(dst.Row(r0 + r)[c0+j*n:c0+(j+1)*n], jq.Row(r), jf.Row(r))
	}
}

// scaleRows divides row r0+r of dst by s[r].
func scaleRows(dst *la.Dense, r0 int, s []float64) {
	for r, sr := range s {
		row := dst.Row(r0 + r)
		for c := range row {
			row[c] /= sr
		}
	}
}

// axpyBlock adds w·blk into dst with blk's (0, 0) at (r0, c0).
func axpyBlock(dst *la.Dense, r0, c0 int, blk *la.Dense, w float64) {
	for r := 0; r < blk.Rows; r++ {
		row := dst.Row(r0 + r)[c0 : c0+blk.Cols]
		for c, v := range blk.Row(r) {
			row[c] += w * v
		}
	}
}

// border is the extra equation each grid line carries, linear in the
// unknowns: Σₜ w[t]·z[bcol(l, t)] − c = 0. A phase condition weighs the
// line's n1 samples of state k; a pinned ω (k = n1·n) weighs the line's ω
// alone.
type border struct {
	k int
	w []float64
	c float64
	// unit is the absolute part of the row scale Σₜ |w[t]|·(unit + |z|):
	// 1 for a waveform condition (samples may sit at zero), 0 for a pinned
	// ω, whose residual is then the relative frequency error.
	unit float64
}

// phaseBorder is the phase condition on the oscillation state of sys (see
// phaseRow); with PhaseFixValue the held value is x0's value of that state,
// so the condition holds at the start.
func phaseBorder(sys dae.Autonomous, kind PhaseKind, n1 int, x0 []float64) (border, error) {
	n, k := sys.Dim(), sys.OscVar()
	if k < 0 || k >= n {
		return border{}, solverr.Wrap(solverr.KindBadInput, "core.phase", ErrNeedOscillation)
	}
	w, err := phaseRow(kind, n1)
	if err != nil {
		return border{}, err
	}
	var c float64
	if kind == PhaseFixValue {
		c = x0[k]
	}
	return border{k: k, w: w, c: c, unit: 1}, nil
}

// pinnedBorder fixes every line's ω at omega: the forced (unwarped-MPDE)
// corner, where the source sets the fast period and no state is read.
func pinnedBorder(n1, n int, omega float64) border {
	return border{k: n1 * n, w: []float64{1}, c: omega}
}

// borderScale returns line l's border row scale at z (1 when it vanishes).
func (g *grid) borderScale(z []float64, l int) float64 {
	s := 0.0
	for t, w := range g.bord.w {
		s += abs(w) * (g.bord.unit + abs(z[g.bcol(l, t)]))
	}
	if s == 0 {
		s = 1
	}
	return s
}

// t2Axis is how the grid discretizes ∂q/∂t2: the BE/trapezoidal step from
// the previous level (one line), or the periodic spectral coupling across
// N2 lines. θ weighs the collocation term ω·D1·q + f.
type t2Axis interface {
	theta() float64
	// residual writes the unscaled rows T(q) + θ·(ω·D1·q + f) from the
	// grid's sampled q and rhs.
	residual(g *grid, r []float64)
	apply(g *grid, v, out []float64) // T·v for v = JQ·δx; out may alias v
	// diagRow adds one row of a point's diagonal block from its JQ and JF.
	diagRow(dst, jq, jf []float64)
	// addCross adds point p's JQ couplings to other lines into its dense
	// rows from r0; emitJQ emits the row-scaled t2 entries of its
	// JQ[r][c] = v for the sparse rescue.
	addCross(g *grid, p int, dst *la.Dense, r0 int)
	emitJQ(g *grid, p, r, c int, v float64, scale []float64, tr *sparse.Triplet)
}

// stepAxis is one implicit t2 step of length h, T(q) = (q − prev)/h, plus
// (1−θ)·old on the trapezoidal rule, where old is ω·D1·q + f at the
// previous level (nil for Backward Euler, θ = 1). The driver rewrites the
// fields every step.
type stepAxis struct {
	h, th     float64
	prev, old []float64
}

func (s *stepAxis) theta() float64 { return s.th }

func (s *stepAxis) residual(g *grid, r []float64) {
	for i, q := range g.q {
		v := (q-s.prev[i])/s.h + s.th*g.rhs[i]
		if s.old != nil {
			v += (1 - s.th) * s.old[i]
		}
		r[i] = v
	}
}

func (s *stepAxis) apply(_ *grid, v, out []float64) {
	for i := range v {
		out[i] = v[i] / s.h
	}
}

// diagRow adds the fused JQ/h + θ·JF.
func (s *stepAxis) diagRow(dst, jq, jf []float64) {
	for c := range dst {
		dst[c] += jq[c]/s.h + s.th*jf[c]
	}
}

func (*stepAxis) addCross(*grid, int, *la.Dense, int) {}

func (s *stepAxis) emitJQ(g *grid, p, r, c int, v float64, scale []float64, tr *sparse.Triplet) {
	row := p*g.n + r
	tr.Add(row, p*g.n+c, v/s.h/scale[row])
}

// periodicAxis is the T2-periodic t2 derivative of §4.1: spectral
// differentiation across the N2 lines at each t1 point, T = (D2/T2 ⊗ I)·q,
// with θ = 1. D2 has a zero diagonal, so a point's diagonal block is JF
// alone. The operator applies it through the cached FFT plans.
type periodicAxis struct {
	d2     []float64 // D2/T2, N2×N2
	period float64
	// n1·n rows × N2 (state i at t1 point j along t2), built on first
	// apply: only the matrix-free path transforms along t2.
	spec [][]complex128
}

func newPeriodicAxis(n2 int, period float64) *periodicAxis {
	a := &periodicAxis{d2: fourier.DiffMatrix(n2), period: period}
	for i := range a.d2 {
		a.d2[i] /= period
	}
	return a
}

func (*periodicAxis) theta() float64 { return 1 }

func (a *periodicAxis) residual(g *grid, r []float64) {
	n, n1, lines := g.n, g.n1, g.lines
	for idx := range r {
		l, j, i := idx/(n1*n), idx/n%n1, idx%n
		acc := 0.0
		for m, wgt := range a.d2[l*lines : (l+1)*lines] {
			if wgt != 0 {
				acc += wgt * g.q[(m*n1+j)*n+i]
			}
		}
		r[idx] = acc + g.rhs[idx]
	}
}

// apply transforms along t2 with D2's i·2πk symbol, as SpectralOp does
// along t1.
func (a *periodicAxis) apply(g *grid, v, out []float64) {
	n, n1 := g.n, g.n1
	if a.spec == nil {
		a.spec = make([][]complex128, n1*n)
		for i := range a.spec {
			a.spec[i] = make([]complex128, g.lines)
		}
	}
	for rr, row := range a.spec {
		for l := range row {
			row[l] = complex(v[(l*n1+rr/n)*n+rr%n], 0)
		}
	}
	fourier.FFTRows(a.spec)
	spectralDiffRows(a.spec, g.lines)
	fourier.IFFTRows(a.spec)
	for rr, row := range a.spec {
		for l, s := range row {
			out[(l*n1+rr/n)*n+rr%n] = real(s) / a.period
		}
	}
}

func (*periodicAxis) diagRow(dst, _, jf []float64) {
	for c := range dst {
		dst[c] += jf[c]
	}
}

func (a *periodicAxis) addCross(g *grid, p int, dst *la.Dense, r0 int) {
	n1, lines := g.n1, g.lines
	l, j := p/n1, p%n1
	for m := 0; m < lines; m++ {
		if wgt := a.d2[l*lines+m]; wgt != 0 {
			axpyBlock(dst, r0, (m*n1+j)*g.n, g.jqs[m*n1+j], wgt)
		}
	}
}

func (a *periodicAxis) emitJQ(g *grid, p, r, c int, v float64, scale []float64, tr *sparse.Triplet) {
	n1, lines := g.n1, g.lines
	l, j := p/n1, p%n1
	for lr := 0; lr < lines; lr++ {
		if wgt := a.d2[lr*lines+l]; wgt != 0 {
			row := (lr*n1+j)*g.n + r
			tr.Add(row, p*g.n+c, wgt*v/scale[row])
		}
	}
}
