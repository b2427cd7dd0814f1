package shooting

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dae"
	"repro/internal/la"
	"repro/internal/netlist"
	"repro/internal/solverr"
	"repro/internal/transient"
)

func TestForcedLinearRC(t *testing.T) {
	// Sinusoidally driven RC: PSS amplitude |I·R|/sqrt(1+(ωRC)²).
	r, c, f0 := 1e3, 1e-6, 1e3
	w := 2 * math.Pi * f0
	sys := &dae.LinearRC{C: c, R: r, IFunc: func(t float64) float64 { return 1e-3 * math.Sin(w*t) }}
	pss, err := Forced(sys, []float64{0}, 1/f0, Options{Method: transient.Trap, PointsPerPeriod: 512})
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for _, x := range pss.Orbit.X {
		if a := math.Abs(x[0]); a > peak {
			peak = a
		}
	}
	want := 1e-3 * r / math.Sqrt(1+w*w*r*r*c*c)
	if math.Abs(peak-want) > 0.01*want {
		t.Fatalf("PSS amplitude %v, want %v", peak, want)
	}
}

func TestForcedPeriodicityResidual(t *testing.T) {
	sys := &dae.VanDerPol{Mu: 1, Force: func(t float64) float64 { return 0.5 * math.Sin(2*math.Pi*t/7) }}
	pss, err := Forced(sys, []float64{1, 0}, 7, Options{Method: transient.Trap})
	if err != nil {
		t.Fatal(err)
	}
	last := pss.Orbit.X[len(pss.Orbit.X)-1]
	for i := range last {
		if math.Abs(last[i]-pss.X0[i]) > 1e-6 {
			t.Fatalf("orbit not periodic: %v vs %v", last, pss.X0)
		}
	}
}

func TestForcedBadArgs(t *testing.T) {
	sys := &dae.LinearRC{C: 1, R: 1}
	if _, err := Forced(sys, []float64{0, 0}, 1, Options{}); err == nil {
		t.Fatal("dimension error expected")
	}
	if _, err := Forced(sys, []float64{0}, -1, Options{}); err == nil {
		t.Fatal("period error expected")
	}
}

func TestAutonomousVanDerPolSmallMu(t *testing.T) {
	// For μ=0.1: T ≈ 2π(1 + μ²/16), amplitude ≈ 2.
	mu := 0.1
	sys := &dae.VanDerPol{Mu: mu}
	pss, err := Autonomous(sys, []float64{2, 0}, 6.0, Options{Method: transient.Trap, PointsPerPeriod: 512})
	if err != nil {
		t.Fatal(err)
	}
	wantT := 2 * math.Pi * (1 + mu*mu/16)
	if math.Abs(pss.T-wantT) > 2e-3*wantT {
		t.Fatalf("period %v, want %v", pss.T, wantT)
	}
	peak := 0.0
	for _, x := range pss.Orbit.X {
		if a := math.Abs(x[0]); a > peak {
			peak = a
		}
	}
	if math.Abs(peak-2) > 0.01 {
		t.Fatalf("amplitude %v, want ≈2", peak)
	}
}

func TestAutonomousFloquetMultipliers(t *testing.T) {
	// An autonomous limit cycle has one Floquet multiplier at +1; the van
	// der Pol cycle is stable so the other lies inside the unit circle.
	sys := &dae.VanDerPol{Mu: 1}
	pss, err := Autonomous(sys, []float64{2, 0}, 6.5, Options{Method: transient.Trap, PointsPerPeriod: 1024})
	if err != nil {
		t.Fatal(err)
	}
	mult, err := pss.Floquet()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmplx.Abs(mult[0])-1) > 5e-3 {
		t.Fatalf("leading multiplier %v, want magnitude 1", mult[0])
	}
	if cmplx.Abs(mult[1]) > 0.1 {
		t.Fatalf("second multiplier %v should be well inside the unit circle", mult[1])
	}
}

func TestAutonomousLinearLCWithLoss(t *testing.T) {
	// A damped linear tank has no limit cycle: shooting must not converge
	// to a nontrivial orbit (it converges to the origin or fails; either is
	// acceptable — but a "period" answer with nonzero amplitude is a bug).
	sys := &lcAutonomous{dae.LinearLC{L: 1e-6, C: 1e-6, R: 10}}
	pss, err := Autonomous(sys, []float64{1, 0}, 6.28e-6, Options{Method: transient.Trap})
	if err != nil {
		return // fine: no isolated periodic orbit through the anchor
	}
	peak := 0.0
	for _, x := range pss.Orbit.X {
		if a := math.Abs(x[0]); a > peak {
			peak = a
		}
	}
	if peak > 0.99 {
		t.Fatalf("damped tank cannot sustain amplitude %v", peak)
	}
}

type lcAutonomous struct{ dae.LinearLC }

func (l *lcAutonomous) OscVar() int { return 0 }

func TestAutonomousVCO(t *testing.T) {
	// The paper's VCO with frozen control: period near 1/0.75MHz.
	p := circuit.DefaultVCOParams()
	vco, err := circuit.NewVCO(p)
	if err != nil {
		t.Fatal(err)
	}
	u0 := vco.StaticDisplacement(1.5)
	// Get on the cycle first with a short transient.
	res, err := transient.Simulate(Freeze(vco, 0), []float64{0.5, 0, u0, 0}, 0, 30e-6,
		transient.Options{Method: transient.Trap, H: 1 / (circuit.VCONominalFreq * 100)})
	if err != nil {
		t.Fatal(err)
	}
	x0 := res.X[len(res.X)-1]
	pss, err := Autonomous(vco, x0, 1/circuit.VCONominalFreq, Options{Method: transient.Trap, PointsPerPeriod: 200})
	if err != nil {
		t.Fatal(err)
	}
	f := 1 / pss.T
	if math.Abs(f-circuit.VCONominalFreq) > 0.05*circuit.VCONominalFreq {
		t.Fatalf("VCO PSS frequency %v, want ≈ %v", f, circuit.VCONominalFreq)
	}
}

func TestFreezeStopsTimeVariation(t *testing.T) {
	sys := &dae.LinearRC{C: 1, R: 1, IFunc: func(t float64) float64 { return t }}
	fz := Freeze(sys, 2)
	u := make([]float64, 1)
	fz.Input(99, u)
	if u[0] != 2 {
		t.Fatalf("frozen input = %v, want 2", u[0])
	}
}

func TestFloquetWithoutMonodromy(t *testing.T) {
	p := &PSS{}
	if _, err := p.Floquet(); !solverr.IsKind(err, solverr.KindBadInput) {
		t.Fatalf("Floquet on a zero PSS: %v, want a bad-input error", err)
	}
	if _, err := p.Monodromy(); !solverr.IsKind(err, solverr.KindBadInput) {
		t.Fatalf("Monodromy on a zero PSS: %v, want a bad-input error", err)
	}
}

// endState runs one shooting transit of sys over [0, T] from x0 and returns
// the final state.
func endState(t *testing.T, sys dae.System, x0 []float64, T float64, opt Options) []float64 {
	t.Helper()
	res, err := (&transit{sys: sys, opt: opt}).run(x0, T)
	if err != nil {
		t.Fatal(err)
	}
	return end(res)
}

// centralMonodromy is the finite-difference reference for the sensitivity
// pass: dΦ_T/dx0 along each column d_j of dirs by central differences, two
// transits per column, the step scaled to the start state's entry j.
func centralMonodromy(t *testing.T, sys dae.System, x0 []float64, T float64, dirs *la.Dense, opt Options) *la.Dense {
	t.Helper()
	n := len(x0)
	m := la.NewDense(n, dirs.Cols)
	xp := make([]float64, n)
	for j := 0; j < dirs.Cols; j++ {
		h := 1e-6 * (1 + math.Abs(x0[j]))
		for i := range xp {
			xp[i] = x0[i] + h*dirs.At(i, j)
		}
		fp := endState(t, sys, xp, T, opt)
		for i := range xp {
			xp[i] = x0[i] - h*dirs.At(i, j)
		}
		fm := endState(t, sys, xp, T, opt)
		for i := 0; i < n; i++ {
			m.Set(i, j, (fp[i]-fm[i])/(2*h))
		}
	}
	return m
}

// centralEndTime is dΦ_T/dT by central differences in T at a fixed step
// count. Its step is wider than centralMonodromy's: at 1e-6·T the MOS VCO's
// small plate velocity moves less than its transits' Newton noise.
func centralEndTime(t *testing.T, sys dae.System, x0 []float64, T float64, opt Options) []float64 {
	t.Helper()
	dT := 1e-5 * T
	fp := endState(t, sys, x0, T+dT, opt)
	fm := endState(t, sys, x0, T-dT, opt)
	col := make([]float64, len(x0))
	for i := range col {
		col[i] = (fp[i] - fm[i]) / (2 * dT)
	}
	return col
}

// requireSensitivityMatches runs one sensitivity pass from x0 seeded on the
// consistent subspace and checks it, and its end-time column on frozen
// systems, against central differences along the same seed columns to
// 1e-6 of max|M|. It returns the pass and the reference.
func requireSensitivityMatches(t *testing.T, sys dae.System, x0 []float64, T float64, opt Options, frozen bool) (m, ref *la.Dense) {
	t.Helper()
	seed := consistentSeed(sys, x0)
	res, err := (&transit{sys: sys, opt: opt}).run(x0, T)
	if err != nil {
		t.Fatal(err)
	}
	m, dT, err := transient.Sensitivity(context.Background(), sys, res, opt.Method, seed, frozen)
	if err != nil {
		t.Fatal(err)
	}
	ref = centralMonodromy(t, sys, x0, T, seed, opt)
	tol := 1e-6 * ref.MaxAbs()
	for i := range ref.Data {
		if d := math.Abs(m.Data[i] - ref.Data[i]); d > tol {
			t.Fatalf("M[%d,%d] = %.10g, central differences %.10g (|Δ| %.3g > %.3g)",
				i/ref.Cols, i%ref.Cols, m.Data[i], ref.Data[i], d, tol)
		}
	}
	if frozen { // T·dΦ/dT, the response to a relative change of T, has M's units
		refT := centralEndTime(t, sys, x0, T, opt)
		for i, v := range refT {
			if d := T * math.Abs(dT[i]-v); d > tol {
				t.Fatalf("dΦ/dT[%d] = %.10g, central differences %.10g (T·|Δ| %.3g > %.3g)", i, dT[i], v, d, tol)
			}
		}
	}
	return m, ref
}

// TestSensitivityMatchesCentralDifferences is the oracle for the variational
// monodromy: on van der Pol, from a point of its trapezoidal orbit, every
// integration rule's pass agrees with central differences, with forcing and
// with frozen inputs (where the end-time column is dΦ/dT), and so do the
// Floquet multipliers.
func TestSensitivityMatchesCentralDifferences(t *testing.T) {
	vdp := &dae.VanDerPol{Mu: 1}
	orbit, err := Autonomous(vdp, []float64{2, 0}, 6.6, Options{Method: transient.Trap})
	if err != nil {
		t.Fatal(err)
	}
	x0 := orbit.Orbit.X[len(orbit.Orbit.X)/3]
	T := orbit.T
	forced := &dae.VanDerPol{Mu: 1, Force: func(t float64) float64 { return 0.5 * math.Sin(2*math.Pi*t/T) }}
	for _, method := range []transient.Method{transient.BE, transient.Trap, transient.BDF2} {
		opt := Options{Method: method}.withDefaults()
		t.Run(method.String()+"/forced", func(t *testing.T) {
			m, ref := requireSensitivityMatches(t, forced, x0, T, opt, false)
			requireSameMultipliers(t, m, ref)
		})
		t.Run(method.String()+"/frozen", func(t *testing.T) {
			m, ref := requireSensitivityMatches(t, Freeze(vdp, 0), x0, T, opt, true)
			requireSameMultipliers(t, m, ref)
		})
	}
}

// requireSameMultipliers checks that every eigenvalue of m lies within 1e-6
// of a distinct eigenvalue of ref.
func requireSameMultipliers(t *testing.T, m, ref *la.Dense) {
	t.Helper()
	got, err := la.Eigenvalues(m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := la.Eigenvalues(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range got {
		best := 0
		for i, w := range want {
			if cmplx.Abs(g-w) < cmplx.Abs(g-want[best]) {
				best = i
			}
		}
		if d := cmplx.Abs(g - want[best]); d > 1e-6 {
			t.Fatalf("Floquet multiplier %v: nearest by central differences %v (|Δ| %.3g)", g, want[best], d)
		}
		want = append(want[:best], want[best+1:]...)
	}
}

// TestSensitivityOnConsistentSubspace checks the pass on a DAE, the
// cross-coupled MOS VCO (11 states, 4 of them algebraic), where the
// comparison is only meaningful along consistent start perturbations: the
// central differences step along the seed's columns.
func TestSensitivityOnConsistentSubspace(t *testing.T) {
	sys := buildMOSVCO(t)
	frozen := Freeze(sys, 0)
	x := make([]float64, sys.Dim())
	if err := transient.DCOperatingPoint(sys, 0, x, transient.DCOptions{}); err != nil {
		t.Fatal(err)
	}
	x[sys.OscVar()] += 0.1
	T := 2 * math.Pi * math.Sqrt(10e-6*1e-9)
	settle, err := transient.Simulate(frozen, x, 0, 20*T, transient.Options{Method: transient.Trap, H: T / 128})
	if err != nil {
		t.Fatal(err)
	}
	x0 := settle.X[len(settle.X)-1]
	seed := consistentSeed(frozen, x0)
	algebraic := 0
	for j := 0; j < seed.Cols; j++ {
		if seed.At(j, j) == 0 {
			algebraic++
		}
	}
	if algebraic == 0 {
		t.Fatal("the MOS VCO should have algebraic states; the seed is the identity")
	}
	for _, method := range []transient.Method{transient.BE, transient.Trap, transient.BDF2} {
		t.Run(method.String(), func(t *testing.T) {
			requireSensitivityMatches(t, frozen, x0, T, Options{Method: method}.withDefaults(), true)
		})
	}
}

// buildMOSVCO is the cross-coupled NMOS LC oscillator with MEMS varactors
// of the root package's generality test, its control frozen at 1.5 V.
func buildMOSVCO(t *testing.T) *circuit.System {
	t.Helper()
	m := 1 / math.Pow(2*math.Pi*500e3, 2)
	b := 2 * 0.1 * math.Sqrt(m)
	ctl := circuit.DC(1.5)
	ckt := circuit.New()
	ckt.MustAdd(circuit.NewVSource("VDD", "vdd", circuit.Ground, circuit.DC(2.5)))
	ckt.MustAdd(circuit.NewInductor("L1", "vdd", "a", 10e-6, 2))
	ckt.MustAdd(circuit.NewInductor("L2", "vdd", "b", 10e-6, 2))
	ckt.MustAdd(circuit.NewMEMSVaractor("CV1", "a", circuit.Ground, 1e-9, 1, m, b, 1, 0.382, ctl))
	ckt.MustAdd(circuit.NewMEMSVaractor("CV2", "b", circuit.Ground, 1e-9, 1, m, b, 1, 0.382, ctl))
	ckt.MustAdd(circuit.NewNMOS("M1", "a", "b", "tail", 2e-3, 0.7, 0.01))
	ckt.MustAdd(circuit.NewNMOS("M2", "b", "a", "tail", 2e-3, 0.7, 0.01))
	ckt.MustAdd(circuit.NewISource("IT", circuit.Ground, "tail", circuit.DC(2e-3)))
	ckt.MustAdd(circuit.NewResistor("Rt", "tail", circuit.Ground, 1e6))
	ckt.SetOscVar("a")
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// transitCounter wraps an oscillator and counts what shooting runs on it.
// transient.Simulate reads Dim once per run, so every Dim call after
// shooting's own entry check is one transit. A sensitivity pass evaluates
// Jacobians along a stored run and never F, so a long stretch of JQ calls
// with no F between them is one pass; inside a transit every Newton
// iteration evaluates F.
type transitCounter struct {
	dae.Autonomous
	dims, jqSinceF, passes int
}

func (c *transitCounter) Dim() int {
	c.dims++
	return c.Autonomous.Dim()
}

func (c *transitCounter) F(x, u, f []float64) {
	c.jqSinceF = 0
	c.Autonomous.F(x, u, f)
}

func (c *transitCounter) JQ(x []float64, j *la.Dense) {
	if c.jqSinceF++; c.jqSinceF == 16 {
		c.passes++
	}
	c.Autonomous.JQ(x, j)
}

func (c *transitCounter) transits() int { return c.dims - 1 }

// TestShootingReusesTheResidualTransit proves the trajectory reuse: each
// Newton iteration integrates one period, for its residual; the Jacobian's
// sensitivity pass and the converged orbit reuse that run, and Floquet runs
// only a pass. From these guesses Newton takes full steps, so k Jacobians
// cost exactly k + 1 transits.
func TestShootingReusesTheResidualTransit(t *testing.T) {
	forcing := func(t float64) float64 { return 0.5 * math.Sin(2*math.Pi*t/6.6) }
	cases := []struct {
		name  string
		sys   *transitCounter
		shoot func(dae.Autonomous) (*PSS, error)
	}{
		{"autonomous", &transitCounter{Autonomous: &dae.VanDerPol{Mu: 1}}, func(s dae.Autonomous) (*PSS, error) {
			return Autonomous(s, []float64{2, 0}, 6.6, Options{Method: transient.Trap})
		}},
		{"forced", &transitCounter{Autonomous: &dae.VanDerPol{Mu: 1, Force: forcing}}, func(s dae.Autonomous) (*PSS, error) {
			return Forced(s, []float64{2, 0}, 6.6, Options{Method: transient.Trap})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.sys
			pss, err := tc.shoot(c)
			if err != nil {
				t.Fatal(err)
			}
			if c.passes < 2 || c.transits() != c.passes+1 {
				t.Fatalf("%d transits for %d Jacobian passes, want one more transit than passes",
					c.transits(), c.passes)
			}
			before, passes := c.transits(), c.passes
			if _, err := pss.Floquet(); err != nil {
				t.Fatal(err)
			}
			if c.transits() != before || c.passes != passes+1 {
				t.Fatalf("Floquet ran %d transits and %d passes, want 0 and 1",
					c.transits()-before, c.passes-passes)
			}
		})
	}
}

// TestAutonomousRejectsCollapsedPeriod: a period that shrinks onto the start
// state satisfies Φ_T(x0) = x0 without oscillating. Newton finds such a
// period from both starts, and shooting must report it as stagnation.
func TestAutonomousRejectsCollapsedPeriod(t *testing.T) {
	t.Run("van-der-pol-BE", func(t *testing.T) {
		_, err := Autonomous(&dae.VanDerPol{Mu: 1}, []float64{2, 0}, 6.5,
			Options{Method: transient.BE, PointsPerPeriod: 1024})
		requireCollapsed(t, err)
	})
	t.Run("paper-vco-f0-7.5GHz", func(t *testing.T) {
		// The served preamble with an f0 guess four decades too high: the
		// 20-period settle covers 2.7 ns of a 1.35 µs cycle.
		vco, err := circuit.NewVCO(circuit.DefaultVCOParams())
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, vco.Dim())
		if err := transient.DCOperatingPoint(vco, 0, x, transient.DCOptions{}); err != nil {
			t.Fatal(err)
		}
		x[vco.OscVar()] += 0.5
		tGuess := 1 / 7.5e9
		settle, err := transient.Simulate(Freeze(vco, 0), x, 0, 20*tGuess,
			transient.Options{Method: transient.Trap, H: tGuess / 128})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Autonomous(vco, settle.X[len(settle.X)-1], tGuess, Options{})
		requireCollapsed(t, err)
	})
}

func requireCollapsed(t *testing.T, err error) {
	t.Helper()
	if !solverr.IsKind(err, solverr.KindStagnation) || !strings.Contains(err.Error(), "collapsed") {
		t.Fatalf("err = %v, want a stagnation error for a collapsed period", err)
	}
}

// TestFloquetOnRing7 runs the settle-and-shoot preamble on the 7-stage ring
// VCO and asks for its Floquet multipliers. Its monodromy has entries far
// larger than its eigenvalues, which stalls QR unless deflation is also
// judged against ‖H‖; the autonomous multiplier must come out at 1.
func TestFloquetOnRing7(t *testing.T) {
	const stages = 7
	src, err := netlist.RingVCO(stages, 0)
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The dominant traveling-wave mode the generator designs for seeds the
	// settle: stage k at cos(−2π·k·k̂/N), k̂ = (N−1)/2, plates at rest.
	x := make([]float64, sys.Dim())
	for i := range x {
		var k int
		name := sys.StateName(i)
		switch {
		case strings.HasSuffix(name, "#0"):
			x[i] = 0.382 * netlist.VctlDefault * netlist.VctlDefault
		case strings.HasPrefix(name, "v(s"):
			if _, err := fmt.Sscanf(name, "v(s%d)", &k); err == nil {
				x[i] = math.Cos(-math.Pi * float64(k*(stages-1)) / stages)
			}
		}
	}
	T := 1 / netlist.RingVCONominalFreq(stages, netlist.VctlDefault)
	settle, err := transient.Simulate(Freeze(sys, 0), x, 0, 20*T,
		transient.Options{Method: transient.Trap, H: T / 128})
	if err != nil {
		t.Fatal(err)
	}
	pss, err := Autonomous(sys, settle.X[len(settle.X)-1], T, Options{Method: transient.Trap})
	if err != nil {
		t.Fatal(err)
	}
	mult, err := pss.Floquet()
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(cmplx.Abs(mult[0]) - 1); d > 1e-6 {
		t.Fatalf("leading multiplier %v: ||μ| − 1| = %.3g, want ≤ 1e-6", mult[0], d)
	}
}
