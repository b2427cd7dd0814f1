package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/fourier"
	"repro/internal/la"
	"repro/internal/par"
	"repro/internal/sparse"
)

// These tests pin the matrix-free operators against the dense assembly they
// replace: SpectralOp.Apply (and its quasiperiodic analogue) must reproduce
// assembleJacobian·v to spectral-vs-FFT roundoff on random states, stay
// bitwise identical across worker counts, and emit exactly the dense entries
// through assembleSparse for the supervision ladder's sparse-LU rescue rung.

// envOraclePair builds two assemblers (dense and matrix-free) frozen at the
// same random linearization: same state, input, row scales and step
// parameters. n1 covers both parities so the even-N1 Nyquist-bin handling of
// the FFT path is exercised.
func envOraclePair(t *testing.T, rng *rand.Rand, n1 int) (*la.Dense, *SpectralOp, int) {
	t.Helper()
	sys := testVCO(300)
	n := sys.Dim()
	k := sys.OscVar()
	w, c, err := phaseRow(PhaseDerivativeZero, n1, 0)
	if err != nil {
		t.Fatal(err)
	}
	aD := newEnvAssembler(sys, n1, n, k, w, c, EnvelopeOptions{}, new(Stats))
	aM := newEnvAssembler(sys, n1, n, k, w, c, EnvelopeOptions{Linear: LinearMatrixFree}, new(Stats))

	z := make([]float64, n1*n+1)
	for i := 0; i < n1*n; i++ {
		z[i] = -2 + 4*rng.Float64()
	}
	z[n1*n] = 0.1 + 0.2*rng.Float64() // ω
	scale := make([]float64, n1*n+1)
	for i := range scale {
		scale[i] = 0.5 + 1.5*rng.Float64()
	}
	copy(aD.scale, scale)
	copy(aM.scale, scale)
	sys.Input(12.5, aD.u)
	sys.Input(12.5, aM.u)

	h, theta := 0.3, 0.5
	jj := aD.assembleJacobian(z, h, theta)
	op := aM.matFreeOpFor(z, h, theta)
	return jj, op, n1*n + 1
}

func TestSpectralOpMatchesDenseJacobian(t *testing.T) {
	for _, n1 := range []int{25, 24} {
		t.Run(map[int]string{25: "odd", 24: "even"}[n1], func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + n1)))
			jj, op, dim := envOraclePair(t, rng, n1)
			if op.Dim() != dim {
				t.Fatalf("op.Dim() = %d, want %d", op.Dim(), dim)
			}
			for trial := 0; trial < 5; trial++ {
				v := make([]float64, dim)
				for i := range v {
					v[i] = -1 + 2*rng.Float64()
				}
				want := make([]float64, dim)
				got := make([]float64, dim)
				jj.MulVec(v, want)
				op.Apply(v, got)
				assertVecClose(t, want, got, 1e-12, "trial %d", trial)
			}
		})
	}
}

func TestSpectralOpWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	_, op, dim := envOraclePair(t, rng, 25)
	v := make([]float64, dim)
	for i := range v {
		v[i] = -1 + 2*rng.Float64()
	}
	ref := make([]float64, dim)
	defer par.SetWorkers(par.SetWorkers(1))
	op.Apply(v, ref)
	for _, nw := range []int{2, 8} {
		par.SetWorkers(nw)
		got := make([]float64, dim)
		op.Apply(v, got)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: y[%d] = %v, want bitwise %v", nw, i, got[i], ref[i])
			}
		}
	}
}

func TestSpectralOpSparseAssemblyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	jj, op, dim := envOraclePair(t, rng, 25)
	tr := sparse.NewTriplet(dim, dim)
	op.assembleSparse(tr)
	csr := tr.ToCSR()
	v := make([]float64, dim)
	for i := range v {
		v[i] = -1 + 2*rng.Float64()
	}
	want := make([]float64, dim)
	got := make([]float64, dim)
	jj.MulVec(v, want)
	csr.MulVec(v, got)
	assertVecClose(t, want, got, 1e-12, "sparse assembly")
}

// assembleQPDense replicates the quasiperiodic solver's dense Jacobian
// assembly (quasi.go jac()) entry for entry, as the oracle the matrix-free
// operator is checked against.
func assembleQPDense(n, N1, N2, kk int, t2 float64, d1, d2, w, z, q, scale []float64, jqs, jfs []*la.Dense) *la.Dense {
	nx := N1 * N2 * n
	total := nx + N2
	jj := la.NewDense(total, total)
	for p := 0; p < N1*N2; p++ {
		j2r, j1r := p/N1, p%N1
		rowBase := p * n
		omega := z[nx+j2r]
		for j1 := 0; j1 < N1; j1++ {
			wgt := omega * d1[j1r*N1+j1]
			if wgt == 0 {
				continue
			}
			addScaledBlock(jj, rowBase, qpIdx(j1, j2r, 0, n, N1), jqs[j2r*N1+j1], wgt)
		}
		for m := 0; m < N2; m++ {
			wgt := d2[j2r*N2+m] / t2
			if wgt == 0 {
				continue
			}
			addScaledBlock(jj, rowBase, qpIdx(j1r, m, 0, n, N1), jqs[m*N1+j1r], wgt)
		}
		addScaledBlock(jj, rowBase, rowBase, jfs[p], 1)
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
	for j2 := 0; j2 < N2; j2++ {
		for j1 := 0; j1 < N1; j1++ {
			jj.Set(nx+j2, qpIdx(j1, j2, kk, n, N1), w[j1])
		}
	}
	for r := 0; r < total; r++ {
		row := jj.Row(r)
		s := scale[r]
		for c := range row {
			row[c] /= s
		}
	}
	return jj
}

func qpOraclePair(t *testing.T, rng *rand.Rand, N1, N2 int) (*la.Dense, *qpSpectralOp, int) {
	t.Helper()
	sys := testVCO(80)
	n := sys.Dim()
	kk := sys.OscVar()
	t2 := 60.0
	w, _, err := phaseRow(PhaseDerivativeZero, N1, 0)
	if err != nil {
		t.Fatal(err)
	}
	nx := N1 * N2 * n
	total := nx + N2
	z := make([]float64, total)
	for i := 0; i < nx; i++ {
		z[i] = -2 + 4*rng.Float64()
	}
	for j2 := 0; j2 < N2; j2++ {
		z[nx+j2] = 0.1 + 0.2*rng.Float64()
	}
	scale := make([]float64, total)
	for i := range scale {
		scale[i] = 0.5 + 1.5*rng.Float64()
	}
	us := make([][]float64, N2)
	jqs := make([]*la.Dense, N1*N2)
	jfs := make([]*la.Dense, N1*N2)
	q := make([]float64, nx)
	for j2 := 0; j2 < N2; j2++ {
		us[j2] = make([]float64, sys.NumInputs())
		sys.Input(t2*float64(j2)/float64(N2), us[j2])
	}
	for p := 0; p < N1*N2; p++ {
		jqs[p] = la.NewDense(n, n)
		jfs[p] = la.NewDense(n, n)
		x := z[p*n : (p+1)*n]
		sys.JQ(x, jqs[p])
		sys.JF(x, us[p/N1], jfs[p])
		sys.Q(x, q[p*n:(p+1)*n])
	}
	d1 := fourier.DiffMatrix(N1)
	d2 := fourier.DiffMatrix(N2)
	op := newQPSpectralOp(n, N1, N2, kk, t2, d1, d2, w, jqs, jfs)
	op.build(z, q, scale)
	jj := assembleQPDense(n, N1, N2, kk, t2, d1, d2, w, z, q, scale, jqs, jfs)
	return jj, op, total
}

func TestQPSpectralOpMatchesDenseJacobian(t *testing.T) {
	for _, g := range []struct {
		name   string
		n1, n2 int
	}{{"even-odd", 8, 5}, {"odd-even", 7, 4}} {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100*g.n1 + g.n2)))
			jj, op, total := qpOraclePair(t, rng, g.n1, g.n2)
			if op.Dim() != total {
				t.Fatalf("op.Dim() = %d, want %d", op.Dim(), total)
			}
			for trial := 0; trial < 5; trial++ {
				v := make([]float64, total)
				for i := range v {
					v[i] = -1 + 2*rng.Float64()
				}
				want := make([]float64, total)
				got := make([]float64, total)
				jj.MulVec(v, want)
				op.Apply(v, got)
				assertVecClose(t, want, got, 1e-12, "trial %d", trial)
			}
			// Sparse rescue assembly emits the same matrix.
			tr := sparse.NewTriplet(total, total)
			op.assembleSparse(tr)
			csr := tr.ToCSR()
			v := make([]float64, total)
			for i := range v {
				v[i] = -1 + 2*rng.Float64()
			}
			want := make([]float64, total)
			got := make([]float64, total)
			jj.MulVec(v, want)
			csr.MulVec(v, got)
			assertVecClose(t, want, got, 1e-12, "sparse assembly")
		})
	}
}

func TestQPSpectralOpWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	_, op, total := qpOraclePair(t, rng, 8, 5)
	v := make([]float64, total)
	for i := range v {
		v[i] = -1 + 2*rng.Float64()
	}
	ref := make([]float64, total)
	defer par.SetWorkers(par.SetWorkers(1))
	op.Apply(v, ref)
	for _, nw := range []int{2, 8} {
		par.SetWorkers(nw)
		got := make([]float64, total)
		op.Apply(v, got)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: y[%d] = %v, want bitwise %v", nw, i, got[i], ref[i])
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
	dense, err := Quasiperiodic(sys, T2, guess, QPOptions{N1: 15, N2: 9})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := Quasiperiodic(sys, T2, guess, QPOptions{N1: 15, N2: 9, Linear: LinearMatrixFree})
	if err != nil {
		t.Fatal(err)
	}
	for j2 := range dense.Omega {
		if math.Abs(dense.Omega[j2]-mf.Omega[j2]) > 1e-5*dense.Omega[j2] {
			t.Fatalf("matrix-free ω[%d] = %v, dense %v", j2, mf.Omega[j2], dense.Omega[j2])
		}
	}
}

// The supervision ladder's direct-rescue rung on the matrix-free path must
// assemble sparsely and factor with the sparse LU — never a dense matrix.
func TestFaultLinearSparseLURescueMatrixFree(t *testing.T) {
	plan := faultinject.NewPlan().Fail(faultinject.SiteGMRESStagnate, faultinject.Times(2))
	res, err := supervisedEnvelope(t, plan, EnvelopeOptions{Linear: LinearMatrixFree})
	requireHealthy(t, res, err)
	if res.LinearGMRESRescues != 1 || res.LinearLURescues != 1 {
		t.Fatalf("linear rescues (gmres, lu) = (%d, %d), want (1, 1)",
			res.LinearGMRESRescues, res.LinearLURescues)
	}
	if res.LinearSparseLURescues != 1 {
		t.Fatalf("LinearSparseLURescues = %d, want 1 (matrix-free direct rescue must be sparse)",
			res.LinearSparseLURescues)
	}
	if res.GMRESStagnations != 2 {
		t.Fatalf("GMRESStagnations = %d, want 2", res.GMRESStagnations)
	}
}
