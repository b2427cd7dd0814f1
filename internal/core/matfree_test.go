package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dae"
	"repro/internal/faultinject"
	"repro/internal/fourier"
	"repro/internal/la"
	"repro/internal/par"
	"repro/internal/sparse"
)

// The operator oracle suite. One grid kernel serves every multi-time solve,
// so one suite covers both grid shapes (one envelope step line; N2
// periodic lines), both borders (phase row; pinned ω, with per-point
// inputs) and both N1 parities (the even-N1 Nyquist bin of the FFT path;
// periodic grids pair each with the other parity along N2). In every case
// the dense assembly is checked against a central finite difference of the
// residual — an independent reference — and the matrix-free Apply and the
// sparse rescue emission against the dense assembly; Apply must also be
// bitwise identical at any worker count.

type oracleCase struct {
	name      string
	n1, lines int
	pinned    bool
}

var oracleGroups = []struct {
	parity string
	cases  []oracleCase
}{
	{"odd", []oracleCase{{"step-phase", 25, 1, false}, {"step-pinned", 25, 1, true}, {"periodic-phase", 7, 4, false}, {"periodic-pinned", 7, 4, true}}},
	{"even", []oracleCase{{"step-phase", 24, 1, false}, {"step-pinned", 24, 1, true}, {"periodic-phase", 8, 5, false}, {"periodic-pinned", 8, 5, true}}},
}

// forEachOracle runs check on a grid frozen at a random state, inputs and
// row scales for every oracle case, as subtests parity/case.
func forEachOracle(t *testing.T, check func(t *testing.T, rng *rand.Rand, g *grid, z []float64)) {
	for _, grp := range oracleGroups {
		t.Run(grp.parity, func(t *testing.T) {
			for _, c := range grp.cases {
				t.Run(c.name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100*c.n1 + c.lines)))
					g, z := oracleGrid(t, rng, c)
					check(t, rng, g, z)
				})
			}
		})
	}
}

func oracleGrid(t *testing.T, rng *rand.Rand, c oracleCase) (*grid, []float64) {
	t.Helper()
	const period = 60.0
	sys := testVCO(80)
	n := sys.Dim()
	nx := c.lines * c.n1 * n
	var ax t2Axis = newPeriodicAxis(c.lines, period)
	if c.lines == 1 {
		ax = &stepAxis{h: 0.3, th: 0.5, prev: randVec(rng, nx, -1, 1), old: randVec(rng, nx, -1, 1)}
	}
	in := lineInputs{sys: sys}
	bord, err := phaseBorder(sys, PhaseDerivativeZero, c.n1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.pinned {
		bord = pinnedBorder(c.n1, n, 0.2)
		in.input2 = func(tau, t2 float64, u []float64) { u[0] = 1 + 0.5*math.Sin(2*math.Pi*tau) + t2/period }
	}
	g := newGrid(sys, c.n1, c.lines, ax, bord, in, true)
	for l := 0; l < c.lines; l++ {
		in.fill(g.us, c.n1, l, period*float64(l)/float64(c.lines))
	}
	copy(g.scale, randVec(rng, nx+c.lines, 0.5, 2))
	z := randVec(rng, nx+c.lines, -2, 2)
	for l := 0; l < c.lines; l++ {
		z[nx+l] = 0.1 + 0.2*rng.Float64()
	}
	return g, z
}

func randVec(rng *rand.Rand, n int, lo, hi float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = lo + (hi-lo)*rng.Float64()
	}
	return v
}

// qCounting counts the q(x) samples taken of the test VCO.
type qCounting struct {
	*dae.SimpleVCO
	calls int
}

func (c *qCounting) Q(x, q []float64) { c.calls++; c.SimpleVCO.Q(x, q) }

// TestResidualSamplesQOnce: one residual evaluation samples q once per
// collocation point on either grid shape; the ω·D1·q + f rows reuse the
// samples the t2 term reads.
func TestResidualSamplesQOnce(t *testing.T) {
	const n1, period = 9, 60.0
	for _, lines := range []int{1, 3} {
		sys := &qCounting{SimpleVCO: testVCO(period)}
		nx := lines * n1 * sys.Dim()
		var ax t2Axis = newPeriodicAxis(lines, period)
		if lines == 1 {
			ax = &stepAxis{h: 0.3, th: 1, prev: make([]float64, nx)}
		}
		bord, err := phaseBorder(sys, PhaseDerivativeZero, n1, nil)
		if err != nil {
			t.Fatal(err)
		}
		g := newGrid(sys, n1, lines, ax, bord, lineInputs{sys: sys}, false)
		la.Fill(g.scale, 1)
		z := make([]float64, nx+lines)
		g.residual(z, make([]float64, nx+lines))
		if sys.calls != g.points() {
			t.Errorf("lines=%d: residual sampled q %d times, want %d (once per point)", lines, sys.calls, g.points())
		}
	}
}

func TestSpectralOpMatchesDenseJacobian(t *testing.T) {
	forEachOracle(t, func(t *testing.T, rng *rand.Rand, g *grid, z []float64) {
		jj := g.jacobian(z)
		op := g.operator(z)
		dim := len(z)
		if op.Dim() != dim {
			t.Fatalf("op.Dim() = %d, want %d", op.Dim(), dim)
		}
		for trial := 0; trial < 5; trial++ {
			v := randVec(rng, dim, -1, 1)
			want := make([]float64, dim)
			got := make([]float64, dim)
			jj.MulVec(v, want)
			op.Apply(v, got)
			assertVecClose(t, want, got, 1e-12, "trial %d", trial)
		}
	})
}

// TestSpectralOpBlockPatternsMatchDenseProducts checks Apply's device-block
// products, taken over the union nonzero patterns, against the dense
// products they replaced, bit for bit: the reference is the same operator
// with every entry in both patterns, where each block product is
// Dense.MulVec term for term. The test VCO's JQ entry (0, 2),
// −C0·v/(1+u)², vanishes where v = 0. The first linearization sets v = 0 at
// every point, so the entry leaves the union; the second sets it at every
// other point, so the entry is back but zero at half the points. A pattern
// that missed a point's entry, or was not rebuilt at the second
// linearization, would show.
func TestSpectralOpBlockPatternsMatchDenseProducts(t *testing.T) {
	forEachOracle(t, func(t *testing.T, rng *rand.Rand, g *grid, z0 []float64) {
		n, dim := g.n, len(z0)
		all := la.NewDense(n, n)
		la.Fill(all.Data, 1)
		full := la.NewPattern(n, n)
		full.Union([]*la.Dense{all})
		for lin, every := range []int{1, 2} {
			z := append([]float64(nil), z0...)
			for p := 0; p < g.points(); p += every {
				z[p*n] = 0
			}
			op := g.operator(z)
			zeros := 0
			for _, jq := range g.jqs {
				if jq.At(0, 2) == 0 {
					zeros++
				}
			}
			if want := (g.points() + every - 1) / every; zeros != want {
				t.Fatalf("linearization %d: JQ(0, 2) is zero at %d points, want %d", lin, zeros, want)
			}
			for trial := 0; trial < 3; trial++ {
				v := randVec(rng, dim, -1, 1)
				got, want := make([]float64, dim), make([]float64, dim)
				op.Apply(v, got)
				jq, jf := op.jqPat, op.jfPat
				op.jqPat, op.jfPat = full, full
				op.Apply(v, want)
				op.jqPat, op.jfPat = jq, jf
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("linearization %d trial %d: y[%d] = %v, dense products give %v", lin, trial, i, got[i], want[i])
					}
				}
			}
		}
	})
}

func TestSpectralOpSparseAssemblyMatchesDense(t *testing.T) {
	forEachOracle(t, func(t *testing.T, _ *rand.Rand, g *grid, z []float64) {
		jj := g.jacobian(z)
		op := g.operator(z)
		dim := len(z)
		tr := sparse.NewTriplet(dim, dim)
		op.assembleSparse(tr)
		got := la.NewDense(dim, dim)
		for k, v := range tr.V {
			got.Add(tr.I[k], tr.J[k], v)
		}
		assertVecClose(t, jj.Data, got.Data, 1e-13, "sparse entries")
	})
}

// The finite difference sees only residual evaluations, so it is an
// independent reference for the assembly every other check leans on.
func TestSpectralOpDenseMatchesFiniteDifference(t *testing.T) {
	forEachOracle(t, func(t *testing.T, _ *rand.Rand, g *grid, z []float64) {
		jj := g.jacobian(z).Clone()
		dim := len(z)
		zz := append([]float64(nil), z...)
		rp := make([]float64, dim)
		rm := make([]float64, dim)
		fd := la.NewDense(dim, dim)
		for c := 0; c < dim; c++ {
			eps := 1e-6 * math.Max(1, math.Abs(z[c]))
			zz[c] = z[c] + eps
			g.residual(zz, rp)
			zz[c] = z[c] - eps
			g.residual(zz, rm)
			zz[c] = z[c]
			for r := 0; r < dim; r++ {
				fd.Set(r, c, (rp[r]-rm[r])/(2*eps))
			}
		}
		assertVecClose(t, jj.Data, fd.Data, 1e-7, "finite difference")
	})
}

// TestSpectralOpWorkerCountInvariant requires the operator's Apply to be
// bitwise identical at any worker count. Apply runs as a plain loop and no
// longer reaches the pool; the test stays as a guard should it be handed
// back to it.
func TestSpectralOpWorkerCountInvariant(t *testing.T) {
	forEachOracle(t, func(t *testing.T, rng *rand.Rand, g *grid, z []float64) {
		op := g.operator(z)
		v := randVec(rng, len(z), -1, 1)
		ref := make([]float64, len(z))
		defer par.SetWorkers(par.SetWorkers(1))
		op.Apply(v, ref)
		for _, nw := range []int{2, 8} {
			par.SetWorkers(nw)
			got := make([]float64, len(z))
			op.Apply(v, got)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("workers=%d: y[%d] = %v, want bitwise %v", nw, i, got[i], ref[i])
				}
			}
		}
	})
}

// qpOracle builds the grid of a quasiperiodic solve — N2 periodic lines
// with a phase border, wired as quasiperiodic wires it — frozen at a random
// state and row scales. Its oracle is the bordered Jacobian written straight
// from the device derivatives, entry for entry from the QP collocation
// equation, without going through the grid's own assembly:
//
//	row (l, j):  ω_l·D1[j,m]·JQ(x_{l,m}) + D2[l,m]/T2·JQ(x_{m,j}) + JF(x_{l,j}, u_l),
//	             and (D1·q)_{l,j} in line l's ω column;
//	row nx+l:    the phase weights w[j] on state k of line l.
func qpOracle(t *testing.T, rng *rand.Rand, n1, n2 int) (*grid, []float64, *la.Dense) {
	t.Helper()
	const period = 60.0
	sys := testVCO(80)
	n, k := sys.Dim(), sys.OscVar()
	bord, err := phaseBorder(sys, PhaseDerivativeZero, n1, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := lineInputs{sys: sys}
	g := newGrid(sys, n1, n2, newPeriodicAxis(n2, period), bord, in, true)
	for l := 0; l < n2; l++ {
		in.fill(g.us, n1, l, period*float64(l)/float64(n2))
	}
	nx := n1 * n2 * n
	total := nx + n2
	copy(g.scale, randVec(rng, total, 0.5, 2))
	z := randVec(rng, total, -2, 2)
	for l := 0; l < n2; l++ {
		z[nx+l] = 0.1 + 0.2*rng.Float64()
	}

	at := func(l, j int) int { return (l*n1 + j) * n }
	d1, d2 := fourier.DiffMatrix(n1), fourier.DiffMatrix(n2)
	jqs := make([]*la.Dense, n1*n2)
	q := make([]float64, nx)
	u := make([]float64, sys.NumInputs())
	ref := la.NewDense(total, total)
	for p := range jqs {
		jqs[p] = la.NewDense(n, n)
		sys.JQ(z[p*n:(p+1)*n], jqs[p])
		sys.Q(z[p*n:(p+1)*n], q[p*n:(p+1)*n])
	}
	for l := 0; l < n2; l++ {
		sys.Input(period*float64(l)/float64(n2), u)
		for j := 0; j < n1; j++ {
			r0 := at(l, j)
			for m := 0; m < n1; m++ {
				axpyBlock(ref, r0, at(l, m), jqs[l*n1+m], z[nx+l]*d1[j*n1+m])
			}
			for m := 0; m < n2; m++ {
				axpyBlock(ref, r0, at(m, j), jqs[m*n1+j], d2[l*n2+m]/period)
			}
			jf := la.NewDense(n, n)
			sys.JF(z[r0:r0+n], u, jf)
			axpyBlock(ref, r0, r0, jf, 1)
			for m := 0; m < n1; m++ {
				for i := 0; i < n; i++ {
					ref.Add(r0+i, nx+l, d1[j*n1+m]*q[at(l, m)+i])
				}
			}
			ref.Set(nx+l, r0+k, bord.w[j])
		}
	}
	scaleRows(ref, 0, g.scale)
	return g, z, ref
}

func TestQPSpectralOpMatchesDenseJacobian(t *testing.T) {
	for _, c := range []struct {
		name   string
		n1, n2 int
	}{{"even-odd", 8, 5}, {"odd-even", 7, 4}} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100*c.n1 + c.n2)))
			g, z, ref := qpOracle(t, rng, c.n1, c.n2)
			dim := len(z)
			assertVecClose(t, ref.Data, g.jacobian(z).Data, 1e-12, "dense assembly")
			op := g.operator(z)
			if op.Dim() != dim {
				t.Fatalf("op.Dim() = %d, want %d", op.Dim(), dim)
			}
			for trial := 0; trial < 5; trial++ {
				v := randVec(rng, dim, -1, 1)
				want := make([]float64, dim)
				got := make([]float64, dim)
				ref.MulVec(v, want)
				op.Apply(v, got)
				assertVecClose(t, want, got, 1e-12, "trial %d", trial)
			}
			tr := sparse.NewTriplet(dim, dim)
			op.assembleSparse(tr)
			got := la.NewDense(dim, dim)
			for i, v := range tr.V {
				got.Add(tr.I[i], tr.J[i], v)
			}
			assertVecClose(t, ref.Data, got.Data, 1e-12, "sparse entries")
		})
	}
}

// Every per-point kernel of a quasiperiodic Newton step — the residual, the
// dense row assembly and the operator's Apply — on a grid of 144 points must
// be bitwise identical at any worker count. These kernels run as plain loops
// and no longer reach the pool; the test stays as a guard should one be
// handed back to it.
func TestQPSpectralOpWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g, z, _ := qpOracle(t, rng, 16, 9)
	v := randVec(rng, len(z), -1, 1)
	kernels := func() (r, jj, y []float64) {
		r = make([]float64, len(z))
		y = make([]float64, len(z))
		g.residual(z, r)
		jj = append([]float64(nil), g.jacobian(z).Data...)
		g.operator(z).Apply(v, y)
		return r, jj, y
	}
	defer par.SetWorkers(par.SetWorkers(1))
	refR, refJ, refY := kernels()
	for _, nw := range []int{2, 8} {
		par.SetWorkers(nw)
		r, jj, y := kernels()
		for name, pair := range map[string][2][]float64{"residual": {refR, r}, "jacobian": {refJ, jj}, "apply": {refY, y}} {
			for i, want := range pair[0] {
				if pair[1][i] != want {
					t.Fatalf("workers=%d: %s[%d] = %v, want bitwise %v", nw, name, i, pair[1][i], want)
				}
			}
		}
	}
}

// assertVecClose requires |want-got| ≤ tol·max|want| elementwise (the dense
// and FFT spectral differentiations agree only to roundoff, not bitwise).
func assertVecClose(t *testing.T, want, got []float64, tol float64, format string, args ...any) {
	t.Helper()
	den := 0.0
	for _, v := range want {
		if a := math.Abs(v); a > den {
			den = a
		}
	}
	if den == 0 {
		den = 1
	}
	for i := range want {
		if math.Abs(want[i]-got[i]) > tol*den {
			t.Fatalf("%s: y[%d] = %v, want %v (rel err %.3g)",
				fmt.Sprintf(format, args...), i, got[i], want[i], math.Abs(want[i]-got[i])/den)
		}
	}
}

// End-to-end: the matrix-free envelope path lands on the dense trajectory.
func TestEnvelopeMatrixFreeMatchesDense(t *testing.T) {
	T2 := 60.0
	sys := testVCO(T2)
	xhat0, omega0 := solveIC(t, sys, 21)
	dense, err := Envelope(sys, xhat0, omega0, T2/4, EnvelopeOptions{N1: 21, H2: T2 / 200})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := Envelope(sys, xhat0, omega0, T2/4, EnvelopeOptions{N1: 21, H2: T2 / 200, Linear: LinearMatrixFree})
	if err != nil {
		t.Fatal(err)
	}
	if mf.LinearLURescues != 0 {
		t.Fatalf("unarmed matrix-free run used the direct rescue %d times", mf.LinearLURescues)
	}
	for k := range dense.Omega {
		if math.Abs(dense.Omega[k]-mf.Omega[k]) > 1e-5*dense.Omega[k] {
			t.Fatalf("matrix-free ω diverges from dense at step %d: %v vs %v", k, mf.Omega[k], dense.Omega[k])
		}
	}
}

func TestQuasiperiodicMatrixFreeMatchesDense(t *testing.T) {
	T2 := 80.0
	sys := testVCO(T2)
	xhat0, omega0 := solveIC(t, sys, 15)
	env, err := Envelope(sys, xhat0, omega0, 1.5*T2, EnvelopeOptions{N1: 15, H2: T2 / 150, Trap: true})
	if err != nil {
		t.Fatal(err)
	}
	guess, err := GuessFromEnvelope(env, T2, 15, 9)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(linear LinearKind) *QPResult {
		res, err := Quasiperiodic(sys, T2, guess, QPOptions{N1: 15, N2: 9, Linear: linear})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	defer par.SetWorkers(par.SetWorkers(1))
	kinds := []LinearKind{LinearDenseLU, LinearMatrixFree}
	refs := []*QPResult{solve(kinds[0]), solve(kinds[1])}
	dense, mf := refs[0], refs[1]
	for j2 := range dense.Omega {
		if math.Abs(dense.Omega[j2]-mf.Omega[j2]) > 1e-5*dense.Omega[j2] {
			t.Fatalf("matrix-free ω[%d] = %v, dense %v", j2, mf.Omega[j2], dense.Omega[j2])
		}
	}
	// The pooled kernels — dense LU of the 414-unknown system, the per-line
	// block fill and the block-Jacobi factor and apply — must reproduce each
	// path's one-worker run bitwise.
	for _, nw := range []int{2, 8} {
		par.SetWorkers(nw)
		for k, linear := range kinds {
			ref, got := refs[k], solve(linear)
			if got.GMRESMatVecs != ref.GMRESMatVecs {
				t.Errorf("workers=%d linear=%v: matvecs %d, want %d", nw, linear, got.GMRESMatVecs, ref.GMRESMatVecs)
			}
			for j2, w := range ref.Omega {
				if got.Omega[j2] != w {
					t.Fatalf("workers=%d linear=%v: ω[%d] = %v, want bitwise %v", nw, linear, j2, got.Omega[j2], w)
				}
				for j1, x := range ref.X[j2] {
					for i, v := range x {
						if got.X[j2][j1][i] != v {
							t.Fatalf("workers=%d linear=%v: X[%d][%d][%d] = %v, want bitwise %v",
								nw, linear, j2, j1, i, got.X[j2][j1][i], v)
						}
					}
				}
			}
		}
	}
}

// The supervision ladder's direct-rescue rung on the matrix-free path must
// assemble sparsely and factor with the sparse LU — never a dense matrix.
func TestFaultLinearSparseLURescueMatrixFree(t *testing.T) {
	plan := faultinject.NewPlan().Fail(faultinject.SiteGMRESStagnate, faultinject.Times(2))
	res, err := supervisedEnvelope(t, plan, EnvelopeOptions{Linear: LinearMatrixFree})
	requireHealthy(t, res, err)
	if res.LinearGMRESRescues != 0 || res.LinearLURescues != 2 {
		t.Fatalf("linear rescues (gmres, lu) = (%d, %d), want (0, 2)",
			res.LinearGMRESRescues, res.LinearLURescues)
	}
	if res.LinearSparseLURescues != 2 {
		t.Fatalf("LinearSparseLURescues = %d, want 2 (matrix-free direct rescue must be sparse)",
			res.LinearSparseLURescues)
	}
	if res.GMRESStagnations != 2 {
		t.Fatalf("GMRESStagnations = %d, want 2", res.GMRESStagnations)
	}
}

// d1RowOracle is the plain (D1·q)ₚ accumulation: every state of point p
// starts from +0 and adds its line's weighted samples in ascending m,
// skipping zero weights. grid.d1Row must reproduce it bit for bit.
func d1RowOracle(g *grid, p int, q []float64) []float64 {
	n, n1 := g.n, g.n1
	j := p % n1
	line := q[(p-j)*n : (p-j+n1)*n]
	dst := make([]float64, n)
	for m, wgt := range g.d1[j*n1 : (j+1)*n1] {
		if wgt == 0 {
			continue
		}
		for i := range dst {
			dst[i] += wgt * line[m*n+i]
		}
	}
	return dst
}

// TestD1RowMatchesAscendingOracle holds the state-blocked spectral rows to
// the plain accumulation, bitwise, at n = 1–9 (every tail after the
// four-state blocks), odd and even N1 and N1 = 1 (an all-zero row), on two
// lines. The samples include +0 and −0, and each point's row reads an Inf
// at its own sample, where D1's diagonal weight is zero: the row must skip
// it and stay finite. A second weight matrix mixes +0 and −0 weights into
// the rows.
func TestD1RowMatchesAscendingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const lines = 2
	for n := 1; n <= 9; n++ {
		for _, n1 := range []int{1, 6, 7, 25} {
			sparseD1 := randVec(rng, n1*n1, -3, 3)
			for i := range sparseD1 {
				switch rng.Intn(4) {
				case 0:
					sparseD1[i] = 0
				case 1:
					sparseD1[i] = math.Copysign(0, -1)
				}
			}
			for i := 0; i < n1; i++ {
				sparseD1[i*n1+i] = 0
			}
			for _, d1 := range [][]float64{fourier.DiffMatrix(n1), sparseD1} {
				g := &grid{n: n, n1: n1, lines: lines, d1: d1}
				q := randVec(rng, lines*n1*n, -2, 2)
				for i := range q {
					switch i % 7 {
					case 2:
						q[i] = 0
					case 5:
						q[i] = math.Copysign(0, -1)
					}
				}
				got := make([]float64, n)
				for p := 0; p < g.points(); p++ {
					qp := append([]float64(nil), q...)
					qp[p*n+rng.Intn(n)] = math.Inf(1)
					want := d1RowOracle(g, p, qp)
					g.d1Row(p, qp, got)
					for i, v := range want {
						if math.IsInf(v, 0) || math.IsNaN(v) {
							t.Fatalf("n=%d N1=%d p=%d: oracle state %d = %v, want finite", n, n1, p, i, v)
						}
						if math.Float64bits(got[i]) != math.Float64bits(v) {
							t.Fatalf("n=%d N1=%d p=%d: state %d = %v, want bitwise %v", n, n1, p, i, got[i], v)
						}
					}
				}
			}
		}
	}
}
