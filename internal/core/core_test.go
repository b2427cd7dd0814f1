package core

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/dae"
	"repro/internal/la"
	"repro/internal/solverr"
	"repro/internal/transient"
	"repro/internal/wave"
)

// testVCO returns a normalized SimpleVCO: f0 = 1/(2π) ≈ 0.159 at u = 0,
// limit-cycle amplitude ≈ 2, control sweeping u over [0.25, 2.25] with slow
// period T2.
func testVCO(T2 float64) *dae.SimpleVCO {
	return &dae.SimpleVCO{
		L: 1, C0: 1,
		G1: -0.2, G3: 0.2 / 3,
		TauM: 10, Gamma: 1,
		Ctl: func(t float64) float64 { return 1 + 0.5*math.Sin(2*math.Pi*t/T2) },
	}
}

// solveIC computes the WaMPDE initial condition for the test VCO.
func solveIC(t *testing.T, sys *dae.SimpleVCO, n1 int) ([]float64, float64) {
	t.Helper()
	xhat0, omega0, err := InitialCondition(sys, []float64{1, 0, 1}, 4.5, ICOptions{N1: n1})
	if err != nil {
		t.Fatal(err)
	}
	return xhat0, omega0
}

func TestInitialConditionFrequency(t *testing.T) {
	sys := testVCO(300)
	_, omega0 := solveIC(t, sys, 25)
	// At Vc(0)=1, u=1: f = f0·sqrt(2).
	want := sys.FreqAt(1)
	if math.Abs(omega0-want) > 0.02*want {
		t.Fatalf("omega0 = %v, want ≈ %v", omega0, want)
	}
}

func TestInitialConditionPhaseAligned(t *testing.T) {
	sys := testVCO(300)
	xhat0, _ := solveIC(t, sys, 25)
	// The oscillation variable (index 0) should peak at t1=0: sample 0 is
	// the max over the slice.
	n := sys.Dim()
	v0 := xhat0[0]
	for j := 1; j < 25; j++ {
		if xhat0[j*n] > v0+1e-3 {
			t.Fatalf("sample %d (%v) exceeds t1=0 sample (%v): orbit not peak-aligned", j, xhat0[j*n], v0)
		}
	}
}

// countingVCO counts every device evaluation (q, f and their Jacobians);
// atomic because shooting's monodromy columns run in parallel.
type countingVCO struct {
	*dae.SimpleVCO
	evals atomic.Int64
}

func (c *countingVCO) Q(x, q []float64)               { c.evals.Add(1); c.SimpleVCO.Q(x, q) }
func (c *countingVCO) F(x, u, f []float64)            { c.evals.Add(1); c.SimpleVCO.F(x, u, f) }
func (c *countingVCO) JQ(x []float64, j *la.Dense)    { c.evals.Add(1); c.SimpleVCO.JQ(x, j) }
func (c *countingVCO) JF(x, u []float64, j *la.Dense) { c.evals.Add(1); c.SimpleVCO.JF(x, u, j) }

// TestInitialConditionSettleHonorsContext: the shooting context also governs
// the settling transient, so a pre-canceled preamble stops before it
// evaluates the device once.
func TestInitialConditionSettleHonorsContext(t *testing.T) {
	sys := &countingVCO{SimpleVCO: testVCO(300)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := ICOptions{N1: 25}
	opt.Shooting.Ctx = ctx
	_, _, err := InitialCondition(sys, []float64{1, 0, 1}, 4.5, opt)
	if !solverr.IsKind(err, solverr.KindCanceled) {
		t.Fatalf("error kind = %v, want canceled: %v", solverr.KindOf(err), err)
	}
	if n := sys.evals.Load(); n != 0 {
		t.Fatalf("canceled preamble evaluated the device %d times, want 0", n)
	}
}

func TestEnvelopeTracksDesignFrequency(t *testing.T) {
	// The central Figure-7 behaviour: ω(t2) follows the control-modulated
	// tank resonance.
	T2 := 300.0
	sys := testVCO(T2)
	xhat0, omega0 := solveIC(t, sys, 25)
	res, err := Envelope(sys, xhat0, omega0, T2, EnvelopeOptions{N1: 25, H2: T2 / 300, Trap: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.T2) < 100 {
		t.Fatalf("too few accepted steps: %d", len(res.T2))
	}
	// Compare ω(t2) with the small-signal design value f(u(t2)) using the
	// solver's own u (state index 2, averaged over t1).
	for k := 20; k < len(res.T2); k += 25 {
		uAvg := 0.0
		for j := 0; j < res.N1; j++ {
			uAvg += res.X[k][j*res.N+2]
		}
		uAvg /= float64(res.N1)
		want := sys.FreqAt(uAvg)
		if math.Abs(res.Omega[k]-want) > 0.03*want {
			t.Fatalf("ω(%.1f) = %v, design %v", res.T2[k], res.Omega[k], want)
		}
	}
	// The modulation must actually swing the frequency (ratio ≈ 1.6).
	min, max := math.Inf(1), 0.0
	for _, w := range res.Omega {
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	if max/min < 1.4 {
		t.Fatalf("frequency swing %v too small — no FM captured", max/min)
	}
}

func TestEnvelopeMatchesTransient(t *testing.T) {
	// Figure 9: the reconstructed WaMPDE waveform overlays brute-force
	// transient simulation started from the same state.
	T2 := 300.0
	sys := testVCO(T2)
	xhat0, omega0 := solveIC(t, sys, 25)
	res, err := Envelope(sys, xhat0, omega0, T2, EnvelopeOptions{N1: 25, H2: T2 / 400, Trap: true})
	if err != nil {
		t.Fatal(err)
	}
	n := sys.Dim()
	x0 := append([]float64(nil), xhat0[:n]...)
	tr, err := transient.Simulate(sys, x0, 0, T2, transient.Options{Method: transient.Trap, H: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Compare over the first half (transient phase error grows later —
	// that growth is itself Figure 12's subject).
	sum, cnt := 0.0, 0
	for i, tv := range tr.T {
		if tv > T2/2 {
			break
		}
		d := res.At(0, tv) - tr.X[i][0]
		sum += d * d
		cnt++
	}
	rms := math.Sqrt(sum / float64(cnt))
	if rms > 0.15 {
		t.Fatalf("WaMPDE vs transient RMS = %v (amplitude ≈ 2)", rms)
	}
}

func TestEnvelopePhaseAgainstFineTransient(t *testing.T) {
	// The unwrapped oscillation phase of the reconstruction should agree
	// with a very fine transient over many cycles.
	T2 := 150.0
	sys := testVCO(T2)
	xhat0, omega0 := solveIC(t, sys, 25)
	res, err := Envelope(sys, xhat0, omega0, T2, EnvelopeOptions{N1: 25, H2: T2 / 300, Trap: true})
	if err != nil {
		t.Fatal(err)
	}
	n := sys.Dim()
	tr, err := transient.Simulate(sys, xhat0[:n], 0, T2, transient.Options{Method: transient.Trap, H: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	ts, ys := res.Reconstruct(0, 0, T2, 20000)
	phW := wave.UnwrappedPhase(ts, ys)
	phT := wave.UnwrappedPhase(tr.T, tr.Component(0))
	errEnd := wave.PhaseErrorAt(phW, phT, T2*0.95)
	if errEnd > 0.05 {
		t.Fatalf("phase error after ≈30 cycles = %v cycles", errEnd)
	}
}

func TestEnvelopePhaseConditionsAgree(t *testing.T) {
	// All three phase conditions must give the same local frequency (the
	// paper: ω ambiguity is only of the order of the slow rate).
	T2 := 100.0
	sys := testVCO(T2)
	xhat0, omega0 := solveIC(t, sys, 25)
	var omegaEnd []float64
	for _, ph := range []PhaseKind{PhaseDerivativeZero, PhaseSpectralImag, PhaseFixValue} {
		ic := xhat0
		if ph == PhaseFixValue {
			// A fixed-value anchor must be crossed transversally; the
			// peak-aligned IC is tangent there, so rotate a quarter cycle
			// onto the falling zero crossing.
			ic = ShiftBivariate(xhat0, 25, sys.Dim(), 0.25)
		}
		res, err := Envelope(sys, ic, omega0, T2, EnvelopeOptions{
			N1: 25, H2: T2 / 200, Trap: true, Phase: ph,
		})
		if err != nil {
			t.Fatalf("phase %v: %v", ph, err)
		}
		omegaEnd = append(omegaEnd, res.Omega[len(res.Omega)-1])
	}
	for i := 1; i < len(omegaEnd); i++ {
		if math.Abs(omegaEnd[i]-omegaEnd[0]) > 0.02*omegaEnd[0] {
			t.Fatalf("phase conditions disagree on ω: %v", omegaEnd)
		}
	}
}

func TestEnvelopeGMRESMatchesDense(t *testing.T) {
	T2 := 60.0
	sys := testVCO(T2)
	xhat0, omega0 := solveIC(t, sys, 21)
	dense, err := Envelope(sys, xhat0, omega0, T2/4, EnvelopeOptions{N1: 21, H2: T2 / 200})
	if err != nil {
		t.Fatal(err)
	}
	// The iterative path as the cmd drivers configure it: matrix-free GMRES
	// with chord Newton.
	gm, err := Envelope(sys, xhat0, omega0, T2/4, EnvelopeOptions{N1: 21, H2: T2 / 200,
		Linear: LinearMatrixFree, ChordNewton: true})
	if err != nil {
		t.Fatal(err)
	}
	for k := range dense.Omega {
		if math.Abs(dense.Omega[k]-gm.Omega[k]) > 1e-5*dense.Omega[k] {
			t.Fatalf("GMRES ω diverges from dense at step %d: %v vs %v", k, gm.Omega[k], dense.Omega[k])
		}
	}
}

func TestEnvelopeDAEConsistency(t *testing.T) {
	// Eq. (14)-(15): the reconstructed x(t) satisfies the original DAE.
	// Check d/dt q(x(t)) + f(x(t),u(t)) ≈ 0 by central differences.
	T2 := 100.0
	sys := testVCO(T2)
	xhat0, omega0 := solveIC(t, sys, 31)
	res, err := Envelope(sys, xhat0, omega0, T2, EnvelopeOptions{N1: 31, H2: T2 / 400, Trap: true})
	if err != nil {
		t.Fatal(err)
	}
	n := sys.Dim()
	u := make([]float64, 1)
	worst := 0.0
	h := 1e-4
	for _, tv := range []float64{10.3, 33.7, 61.2, 88.8} {
		xm := make([]float64, n)
		xp := make([]float64, n)
		xc := make([]float64, n)
		for i := 0; i < n; i++ {
			xm[i] = res.At(i, tv-h)
			xp[i] = res.At(i, tv+h)
			xc[i] = res.At(i, tv)
		}
		qm := make([]float64, n)
		qp := make([]float64, n)
		sys.Q(xm, qm)
		sys.Q(xp, qp)
		f := make([]float64, n)
		sys.Input(tv, u)
		sys.F(xc, u, f)
		for i := 0; i < n; i++ {
			r := (qp[i]-qm[i])/(2*h) + f[i]
			// Scale by the characteristic magnitude of the terms.
			s := math.Abs(f[i]) + math.Abs(qp[i]-qm[i])/(2*h) + 1e-3
			if d := math.Abs(r) / s; d > worst {
				worst = d
			}
		}
	}
	// The dominant contribution is the t2-linear interpolation of the
	// reconstruction between envelope steps, which vanishes with H2.
	if worst > 0.12 {
		t.Fatalf("DAE residual of reconstruction too large: %v", worst)
	}
}

func TestEnvelopeBadArgs(t *testing.T) {
	sys := testVCO(100)
	x := make([]float64, 25*3)
	if _, err := Envelope(sys, x[:10], 1, 10, EnvelopeOptions{N1: 25, H2: 1}); err == nil {
		t.Fatal("bad xhat0 length should fail")
	}
	if _, err := Envelope(sys, x, 1, 10, EnvelopeOptions{N1: 25}); err == nil {
		t.Fatal("missing H2 should fail")
	}
	if _, err := Envelope(sys, x, -1, 10, EnvelopeOptions{N1: 25, H2: 1}); err == nil {
		t.Fatal("negative omega0 should fail")
	}
	if _, err := Envelope(sys, x, 1, -10, EnvelopeOptions{N1: 25, H2: 1}); err == nil {
		t.Fatal("negative t2End should fail")
	}
}

func TestQuasiperiodicMatchesEnvelope(t *testing.T) {
	// §4.1: with periodic boundary conditions the WaMPDE yields the
	// FM-quasiperiodic steady state directly. Validate it against the
	// settled tail of an envelope run.
	T2 := 80.0
	sys := testVCO(T2)
	xhat0, omega0 := solveIC(t, sys, 15)
	env, err := Envelope(sys, xhat0, omega0, 3*T2, EnvelopeOptions{N1: 15, H2: T2 / 150, Trap: true})
	if err != nil {
		t.Fatal(err)
	}
	guess, err := GuessFromEnvelope(env, T2, 15, 15)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := Quasiperiodic(sys, T2, guess, QPOptions{N1: 15, N2: 15})
	if err != nil {
		t.Fatal(err)
	}
	// ω(t2) of the QP solution should match the envelope's settled tail
	// (same t2 phase: envelope tail covers [2T2, 3T2]).
	for j2 := 0; j2 < 15; j2++ {
		tt := 2*T2 + T2*float64(j2)/15
		we := env.OmegaAt(tt)
		wq := qp.Omega[j2]
		if math.Abs(we-wq) > 0.02*we {
			t.Fatalf("QP ω[%d]=%v vs envelope %v", j2, wq, we)
		}
	}
	// Mean frequency sanity: between the design extremes.
	mean := qp.OmegaMean()
	if mean < sys.FreqAt(0.25) || mean > sys.FreqAt(2.25) {
		t.Fatalf("mean ω %v outside design range", mean)
	}
}

func TestQuasiperiodicPeriodicityAndEval(t *testing.T) {
	T2 := 80.0
	sys := testVCO(T2)
	xhat0, omega0 := solveIC(t, sys, 15)
	env, err := Envelope(sys, xhat0, omega0, 3*T2, EnvelopeOptions{N1: 15, H2: T2 / 150, Trap: true})
	if err != nil {
		t.Fatal(err)
	}
	guess, err := GuessFromEnvelope(env, T2, 15, 15)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := Quasiperiodic(sys, T2, guess, QPOptions{N1: 15, N2: 15})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(qp.Eval(0, 0.3, 0.6*T2)-qp.Eval(0, 1.3, 0.6*T2+2*T2)) > 1e-9 {
		t.Fatal("QP solution must be (1,T2)-periodic")
	}
	if math.Abs(qp.OmegaAt(0.25*T2)-qp.OmegaAt(1.25*T2)) > 1e-12 {
		t.Fatal("ω must be T2-periodic")
	}
	// PhiAt must be (near-)additive over periods: φ(2T2) = 2φ(T2).
	if math.Abs(qp.PhiAt(2*T2)-2*qp.PhiAt(T2)) > 1e-9*qp.PhiAt(T2) {
		t.Fatal("PhiAt not additive over whole periods")
	}
}

func TestQuasiperiodicBadArgs(t *testing.T) {
	sys := testVCO(10)
	if _, err := Quasiperiodic(sys, 10, nil, QPOptions{}); err == nil {
		t.Fatal("nil guess should fail")
	}
	if _, err := Quasiperiodic(sys, -1, &QPGuess{}, QPOptions{}); err == nil {
		t.Fatal("negative T2 should fail")
	}
	g := &QPGuess{X: make([][][]float64, 3), Omega: make([]float64, 3)}
	g.X[0] = make([][]float64, 2)
	if _, err := Quasiperiodic(sys, 10, g, QPOptions{N1: 15, N2: 15}); err == nil {
		t.Fatal("shape mismatch should fail")
	}
}

// noOscVar is a system without an oscillation variable to phase-lock.
type noOscVar struct{ *dae.SimpleVCO }

func (noOscVar) OscVar() int { return -1 }

// Every multi-time entry point validates its inputs before any solve: a
// malformed or non-finite input is a typed bad-input error, never a panic
// or a rescue-ladder failure.
func TestMultiTimeInputsRejected(t *testing.T) {
	sys := testVCO(10)
	n, n1, n2 := sys.Dim(), 5, 4
	x := make([]float64, n1*n)
	grid := func(edit func(g *QPGuess)) *QPGuess {
		g := &QPGuess{X: make([][][]float64, n2), Omega: []float64{1, 1, 1, 1}}
		for j2 := range g.X {
			g.X[j2] = make([][]float64, n1)
			for j1 := range g.X[j2] {
				g.X[j2][j1] = make([]float64, n)
			}
		}
		if edit != nil {
			edit(g)
		}
		return g
	}
	env := EnvelopeOptions{N1: n1, H2: 1}
	qp := QPOptions{N1: n1, N2: n2}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		run  func() error
	}{
		{"envelope/t2End=NaN", func() error { _, err := Envelope(sys, x, 1, nan, env); return err }},
		{"envelope/t2End=Inf", func() error { _, err := Envelope(sys, x, 1, inf, env); return err }},
		{"envelope/H2=NaN", func() error {
			_, err := Envelope(sys, x, 1, 10, EnvelopeOptions{N1: n1, H2: nan})
			return err
		}},
		{"envelope/omega0=NaN", func() error { _, err := Envelope(sys, x, nan, 10, env); return err }},
		{"envelope/omega0=Inf", func() error { _, err := Envelope(sys, x, inf, 10, env); return err }},
		{"envelope/short-xhat0", func() error { _, err := Envelope(sys, x[1:], 1, 10, env); return err }},
		{"forced/omega=NaN", func() error { _, err := ForcedEnvelope(sys, nil, x, nan, 10, env); return err }},
		{"forced/omega=0", func() error { _, err := ForcedEnvelope(sys, nil, x, 0, 10, env); return err }},
		{"forced/t2End=NaN", func() error { _, err := ForcedEnvelope(sys, nil, x, 1, nan, env); return err }},
		{"qp/T2=NaN", func() error { _, err := Quasiperiodic(sys, nan, grid(nil), qp); return err }},
		{"qp/nil-guess", func() error { _, err := Quasiperiodic(sys, 10, nil, qp); return err }},
		{"qp/short-grid", func() error {
			_, err := Quasiperiodic(sys, 10, grid(func(g *QPGuess) { g.X = g.X[1:] }), qp)
			return err
		}},
		{"qp/short-line", func() error {
			_, err := Quasiperiodic(sys, 10, grid(func(g *QPGuess) { g.X[1] = g.X[1][1:] }), qp)
			return err
		}},
		{"qp/state-count", func() error {
			_, err := Quasiperiodic(sys, 10, grid(func(g *QPGuess) { g.X[2][3] = make([]float64, n+1) }), qp)
			return err
		}},
		{"qp/omega=0", func() error {
			_, err := Quasiperiodic(sys, 10, grid(func(g *QPGuess) { g.Omega[1] = 0 }), qp)
			return err
		}},
		{"qp/omega=NaN", func() error {
			_, err := Quasiperiodic(sys, 10, grid(func(g *QPGuess) { g.Omega[3] = nan }), qp)
			return err
		}},
		{"qp/short-omega", func() error {
			_, err := Quasiperiodic(sys, 10, grid(func(g *QPGuess) { g.Omega = g.Omega[1:] }), qp)
			return err
		}},
		{"qp/value=NaN", func() error {
			_, err := Quasiperiodic(sys, 10, grid(func(g *QPGuess) { g.X[1][2][0] = nan }), qp)
			return err
		}},
		{"qp/value=Inf", func() error {
			_, err := Quasiperiodic(sys, 10, grid(func(g *QPGuess) { g.X[3][4][2] = inf }), qp)
			return err
		}},
		{"spectral/H2=NaN", func() error {
			_, err := SpectralEnvelope(sys, x, 1, 10, SpectralOptions{M: (n1 - 1) / 2, H2: nan})
			return err
		}},
		{"spectral/omega0=Inf", func() error {
			_, err := SpectralEnvelope(sys, x, inf, 10, SpectralOptions{M: (n1 - 1) / 2, H2: 1})
			return err
		}},
		{"spectral/no-osc-var", func() error {
			_, err := SpectralEnvelope(noOscVar{sys}, x, 1, 10, SpectralOptions{M: (n1 - 1) / 2, H2: 1})
			return err
		}},
		{"ic/TGuess=NaN", func() error { _, err := LimitCycle(sys, x[:n], nan, ICOptions{}); return err }},
		{"forcedqp/omega=NaN", func() error { _, err := ForcedQuasiperiodic(sys, nil, nil, nan, 10, qp); return err }},
		{"forcedqp/T2=NaN", func() error { _, err := ForcedQuasiperiodic(sys, nil, nil, 1, nan, qp); return err }},
		{"forcedqp/short-line", func() error {
			_, err := ForcedQuasiperiodic(sys, nil, grid(func(g *QPGuess) { g.X[1] = g.X[1][1:] }).X, 1, 10, qp)
			return err
		}},
		{"forcedqp/value=NaN", func() error {
			_, err := ForcedQuasiperiodic(sys, nil, grid(func(g *QPGuess) { g.X[0][0][1] = nan }).X, 1, 10, qp)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.run()
			if !solverr.IsKind(err, solverr.KindBadInput) {
				t.Fatalf("err = %v, want a %v error", err, solverr.KindBadInput)
			}
		})
	}
}

func TestPhaseKindString(t *testing.T) {
	if PhaseDerivativeZero.String() == "" || PhaseFixValue.String() == "" ||
		PhaseSpectralImag.String() == "" || PhaseKind(77).String() == "" {
		t.Fatal("PhaseKind names missing")
	}
}

func TestPhaseRowUnknownKind(t *testing.T) {
	if _, err := phaseRow(PhaseKind(99), 8); err == nil {
		t.Fatal("unknown phase kind should error")
	}
}

func TestEnvelopeResultAccessors(t *testing.T) {
	r := &EnvelopeResult{
		N1: 2, N: 1,
		T2:    []float64{0, 1, 2},
		X:     [][]float64{{1, -1}, {2, -2}, {3, -3}},
		Omega: []float64{1, 1, 1},
		Phi:   []float64{0, 1, 2},
	}
	if s := r.Slice(1, 0); s[0] != 2 || s[1] != -2 {
		t.Fatalf("Slice = %v", s)
	}
	if r.OmegaAt(0.5) != 1 {
		t.Fatal("OmegaAt wrong")
	}
	if math.Abs(r.PhiAt(1.5)-1.5) > 1e-12 {
		t.Fatalf("PhiAt = %v", r.PhiAt(1.5))
	}
	if r.UnwrappedPhase(2) != 2 {
		t.Fatal("UnwrappedPhase wrong")
	}
	os := r.OmegaSeries()
	if os.Len() != 3 {
		t.Fatal("OmegaSeries wrong")
	}
}
