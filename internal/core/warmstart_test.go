package core

import (
	"math"
	"testing"

	"repro/internal/dae"
	"repro/internal/krylov"
)

// ctlVCO returns the test VCO with a constant control offset c (no
// modulation): the "parameter point" of a tuning sweep.
func ctlVCO(c float64) *dae.SimpleVCO {
	s := testVCO(300)
	s.Ctl = func(float64) float64 { return c }
	return s
}

func TestWarmStartNilSafety(t *testing.T) {
	var w *WarmStart
	if w.HasOrbit(3) || w.HasEnvelopeIC(25, 3) {
		t.Fatal("nil carrier claims payloads")
	}
	w.SetOrbit([]float64{1, 2, 3}, 1) // must not panic
	w.SetEnvelopeIC([]float64{1}, 1, 1)
	if w.takeEnv(25, 3, LinearDenseLU) != nil {
		t.Fatal("nil carrier yields an envelope carry")
	}
}

func TestWarmStartPayloadGates(t *testing.T) {
	w := &WarmStart{}
	w.SetOrbit([]float64{1, 0, 1}, 4.5)
	if !w.HasOrbit(3) {
		t.Fatal("finite orbit of matching dimension rejected")
	}
	if w.HasOrbit(4) {
		t.Fatal("dimension mismatch accepted")
	}
	w.T = 0
	if w.HasOrbit(3) {
		t.Fatal("non-positive period accepted")
	}
	w.T = 4.5
	w.X0[1] = math.NaN()
	if w.HasOrbit(3) {
		t.Fatal("NaN orbit accepted")
	}

	w.SetEnvelopeIC(make([]float64, 25*3), 1.0, 25)
	if !w.HasEnvelopeIC(25, 3) {
		t.Fatal("matching envelope IC rejected")
	}
	if w.HasEnvelopeIC(17, 3) || w.HasEnvelopeIC(25, 4) {
		t.Fatal("grid/dimension mismatch accepted")
	}
	w.XHat[0] = math.Inf(1)
	if w.HasEnvelopeIC(25, 3) {
		t.Fatal("non-finite envelope IC accepted")
	}

	// takeEnv pops and drops incompatible payloads.
	w.env = &envCarry{n1: 25, n: 3, linear: LinearDenseLU}
	if ec := w.takeEnv(25, 3, LinearMatrixFree); ec != nil {
		t.Fatal("linear-path mismatch adopted")
	}
	if w.env != nil {
		t.Fatal("takeEnv must pop even on mismatch")
	}
	w.env = &envCarry{n1: 25, n: 3, linear: LinearDenseLU}
	if ec := w.takeEnv(25, 3, LinearDenseLU); ec == nil {
		t.Fatal("compatible carry dropped")
	}
	if w.takeEnv(25, 3, LinearDenseLU) != nil {
		t.Fatal("takeEnv must pop: second take found a payload")
	}
}

// TestInitialConditionWarmOrbit walks two neighboring control points: the
// first IC is cold and harvests its orbit, the second restarts shooting from
// it — skipping the settling transient — and must land on the same limit
// cycle a cold solve finds.
func TestInitialConditionWarmOrbit(t *testing.T) {
	ws := &WarmStart{}
	_, _, err := InitialCondition(ctlVCO(1.0), []float64{1, 0, 1}, 4.5,
		ICOptions{N1: 25, SettleCycles: 10, Warm: ws})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Uses != 0 || ws.Fallbacks != 0 {
		t.Fatalf("cold IC touched warm counters: uses=%d fallbacks=%d", ws.Uses, ws.Fallbacks)
	}
	if !ws.HasOrbit(3) {
		t.Fatal("cold IC did not harvest its orbit")
	}

	sys2 := ctlVCO(1.05)
	_, omegaWarm, err := InitialCondition(sys2, []float64{1, 0, 1}, 4.5,
		ICOptions{N1: 25, SettleCycles: 10, Warm: ws})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Uses != 1 || ws.Fallbacks != 0 {
		t.Fatalf("warm IC not adopted: uses=%d fallbacks=%d", ws.Uses, ws.Fallbacks)
	}
	_, omegaCold, err := InitialCondition(sys2, []float64{1, 0, 1}, 4.5,
		ICOptions{N1: 25, SettleCycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(omegaWarm - omegaCold); d > 1e-6*omegaCold {
		t.Fatalf("warm IC frequency drifted from cold: warm=%v cold=%v", omegaWarm, omegaCold)
	}
	// The carrier now holds the new point's orbit (period moved with the
	// control), ready for the next sweep point.
	if !ws.HasOrbit(3) {
		t.Fatal("warm IC did not refresh the orbit")
	}
	if math.Abs(1/ws.T-omegaWarm) > 1e-9*omegaWarm {
		t.Fatalf("harvested period %v inconsistent with omega %v", ws.T, omegaWarm)
	}
}

// TestEnvelopeWarmCarrierMatchesCold runs the same envelope twice — cold, and
// warm-adopting the carrier harvested from a neighboring control point. The
// warm run must agree with the cold one to integration accuracy while
// spending no more Jacobian factorizations.
func TestEnvelopeWarmCarrierMatchesCold(t *testing.T) {
	T2 := 60.0
	opts := func(ws *WarmStart) EnvelopeOptions {
		return EnvelopeOptions{N1: 25, H2: T2 / 60, Trap: true, ChordNewton: true, Warm: ws}
	}

	// Donor point: cold envelope at the base control, harvesting into ws.
	sysA := testVCO(300)
	xhatA, omegaA := solveIC(t, sysA, 25)
	ws := &WarmStart{}
	if _, err := Envelope(sysA, xhatA, omegaA, T2, opts(ws)); err != nil {
		t.Fatal(err)
	}
	if !ws.HasEnvelopeIC(25, 3) {
		t.Fatal("donor run did not harvest an envelope IC")
	}
	if ws.env == nil || ws.env.lu == nil {
		t.Fatal("donor run did not harvest chord factors on the dense path")
	}

	// Neighboring point: a slightly shifted control offset.
	sysB := testVCO(300)
	sysB.Ctl = func(tt float64) float64 { return 1.02 + 0.5*math.Sin(2*math.Pi*tt/300) }
	xhatB, omegaB := solveIC(t, sysB, 25)
	cold, err := Envelope(sysB, xhatB, omegaB, T2, opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Envelope(sysB, xhatB, omegaB, T2, opts(ws))
	if err != nil {
		t.Fatal(err)
	}
	if warm.JacobianEvals > cold.JacobianEvals {
		t.Fatalf("warm run factored more than cold: warm=%d cold=%d",
			warm.JacobianEvals, cold.JacobianEvals)
	}
	// Warm runs skip the BE startup damping, so early steps differ at the
	// truncation-error level; by the end of the window both trajectories
	// follow the same envelope.
	wEnd, cEnd := warm.Omega[len(warm.Omega)-1], cold.Omega[len(cold.Omega)-1]
	if d := math.Abs(wEnd - cEnd); d > 1e-3*cEnd {
		t.Fatalf("warm envelope diverged from cold: warm ω=%v cold ω=%v", wEnd, cEnd)
	}
	// The carrier was refreshed with point B's state for the next point.
	if ws.env == nil {
		t.Fatal("warm run did not re-harvest the envelope carry")
	}
	if math.Abs(ws.Omega-wEnd) > 1e-12*wEnd {
		t.Fatalf("harvested omega %v is not the final omega %v", ws.Omega, wEnd)
	}
}

// TestEnvelopeWarmGMRESCarriesRecycler checks the iterative (matrix-free)
// path: the donor's deflation space and harmonic preconditioner ride the
// carrier, and the adopted run still matches the dense oracle.
func TestEnvelopeWarmGMRESCarriesRecycler(t *testing.T) {
	T2 := 60.0
	sysA := testVCO(300)
	xhatA, omegaA := solveIC(t, sysA, 25)
	opt := EnvelopeOptions{N1: 25, H2: T2 / 60, Trap: true, ChordNewton: true,
		Linear: LinearMatrixFree, RecycleKrylov: true}
	ws := &WarmStart{}
	opt.Warm = ws
	if _, err := Envelope(sysA, xhatA, omegaA, T2, opt); err != nil {
		t.Fatal(err)
	}
	if ws.Rec == nil || ws.Rec.Size() == 0 {
		t.Fatal("donor matrix-free run did not harvest a deflation space")
	}
	if ws.env == nil || ws.env.lu != nil {
		t.Fatal("matrix-free carry must hold no dense chord factors")
	}

	sysB := testVCO(300)
	sysB.Ctl = func(tt float64) float64 { return 1.02 + 0.5*math.Sin(2*math.Pi*tt/300) }
	xhatB, omegaB := solveIC(t, sysB, 25)
	optB := opt
	optB.Warm = ws
	warm, err := Envelope(sysB, xhatB, omegaB, T2, optB)
	if err != nil {
		t.Fatal(err)
	}
	optDense := EnvelopeOptions{N1: 25, H2: T2 / 60, Trap: true}
	dense, err := Envelope(sysB, xhatB, omegaB, T2, optDense)
	if err != nil {
		t.Fatal(err)
	}
	wEnd := warm.Omega[len(warm.Omega)-1]
	dEnd := dense.Omega[len(dense.Omega)-1]
	if d := math.Abs(wEnd - dEnd); d > 1e-3*dEnd {
		t.Fatalf("warm matrix-free envelope diverged from dense oracle: %v vs %v", wEnd, dEnd)
	}
}

// TestQuasiperiodicWarmDensePathInert checks the carrier is advisory on the
// quasiperiodic dense path: a Warm with a stale recycler payload threads
// through untouched (only the matrix-free path adopts it), and the solve result is
// identical to the cold one.
func TestQuasiperiodicWarmDensePathInert(t *testing.T) {
	if testing.Short() {
		t.Skip("quasiperiodic pair is slow")
	}
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
	cold, err := Quasiperiodic(sys, T2, guess, QPOptions{N1: 15, N2: 15})
	if err != nil {
		t.Fatal(err)
	}
	ws := &WarmStart{Rec: krylov.NewRecycler(4)}
	stale := ws.Rec
	warm, err := Quasiperiodic(sys, T2, guess, QPOptions{N1: 15, N2: 15, Warm: ws})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Rec != stale {
		t.Fatal("dense quasiperiodic path must not touch the recycler payload")
	}
	for j2 := range cold.Omega {
		if cold.Omega[j2] != warm.Omega[j2] {
			t.Fatalf("dense warm omega[%d] differs from cold: %v vs %v", j2, warm.Omega[j2], cold.Omega[j2])
		}
	}
}
