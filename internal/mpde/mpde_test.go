package mpde

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dae"
	"repro/internal/solverr"
	"repro/internal/transient"
)

// twoToneRC builds the classic MPDE example: an RC filter driven by a fast
// carrier with a slow envelope, i(t) = Ifast·sin(2π t/T1)·(1+m·sin(2π t/T2)).
func twoToneRC(t1p, t2p float64) *TwoTone {
	base := &dae.LinearRC{C: 1e-6, R: 1e3}
	return &TwoTone{
		System: base,
		Fast:   []func(float64) float64{func(t float64) float64 { return 1e-3 * math.Sin(2*math.Pi*t/t1p) }},
		Slow:   []func(float64) float64{func(t float64) float64 { return 1 + 0.5*math.Sin(2*math.Pi*t/t2p) }},
	}
}

func TestPureFastToneConstantAlongT2(t *testing.T) {
	t1p, t2p := 1e-4, 1e-2
	sys := twoToneRC(t1p, t2p)
	sys.Slow = nil // carrier only: the bivariate solution must not vary in t2
	sol, err := Quasiperiodic(sys, t1p, t2p, nil, Options{N1: 15, N2: 7})
	if err != nil {
		t.Fatal(err)
	}
	for j1 := 0; j1 < sol.N1(); j1++ {
		ref := sol.X[0][j1][0]
		for j2 := 1; j2 < sol.N2(); j2++ {
			if math.Abs(sol.X[j2][j1][0]-ref) > 1e-9*(1+math.Abs(ref)) {
				t.Fatalf("solution varies along t2 for a pure fast tone")
			}
		}
	}
}

func TestQuasiperiodicMatchesTransient(t *testing.T) {
	t1p, t2p := 1e-4, 1e-2
	sys := twoToneRC(t1p, t2p)
	sol, err := Quasiperiodic(sys, t1p, t2p, nil, Options{N1: 15, N2: 15})
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force transient to quasiperiodic steady state (several RC and
	// envelope time constants), then compare pointwise.
	res, err := transient.Simulate(sys, []float64{0}, 0, 5*t2p,
		transient.Options{Method: transient.Trap, H: t1p / 64})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i, tv := range res.T {
		if tv < 4*t2p {
			continue
		}
		got := sol.Univariate(0, tv)
		if d := math.Abs(got - res.X[i][0]); d > worst {
			worst = d
		}
	}
	// Signal peak is ≈1V·(1.5 envelope)·|H| ≈ 0.37V; demand <2% of that.
	if worst > 8e-3 {
		t.Fatalf("MPDE vs transient worst diff %v", worst)
	}
}

func TestQuasiperiodicAnalyticAmplitude(t *testing.T) {
	// With the slow envelope frozen (constant 1), the QP solution reduces
	// to the single-tone phasor answer |H| = R/sqrt(1+(ω1 RC)²).
	t1p, t2p := 1e-4, 1e-2
	sys := twoToneRC(t1p, t2p)
	sys.Slow = nil
	sol, err := Quasiperiodic(sys, t1p, t2p, nil, Options{N1: 21, N2: 5})
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for j1 := 0; j1 < sol.N1(); j1++ {
		// Dense scan via interpolation for a sharp peak estimate.
		v := math.Abs(sol.Eval(0, t1p*float64(j1)/float64(sol.N1()), 0))
		if v > peak {
			peak = v
		}
	}
	w := 2 * math.Pi / t1p
	rc := 1e3 * 1e-6
	want := 1e-3 * 1e3 / math.Sqrt(1+w*w*rc*rc)
	if math.Abs(peak-want) > 0.02*want {
		t.Fatalf("QP amplitude %v, want %v", peak, want)
	}
}

func TestEnvelopeDetectorCircuit(t *testing.T) {
	// Diode + RC envelope detector driven by a modulated carrier: the MPDE
	// solution's t2 variation should track the envelope (a nonlinear,
	// multi-device integration test).
	t1p, t2p := 1e-5, 1e-2
	ckt := circuit.New()
	ckt.MustAdd(circuit.NewISource("I1", "in", circuit.Ground, circuit.DC(0))) // waveform via TwoTone
	ckt.MustAdd(circuit.NewDiode("D1", "in", "out", 1e-12, 0.02585))
	ckt.MustAdd(circuit.NewResistor("Rin", "in", circuit.Ground, 10e3))
	ckt.MustAdd(circuit.NewResistor("RL", "out", circuit.Ground, 100e3))
	ckt.MustAdd(circuit.NewCapacitor("CL", "out", circuit.Ground, 2e-9))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	tt := &TwoTone{
		System: sys,
		Fast:   []func(float64) float64{func(t float64) float64 { return 2e-4 * math.Sin(2*math.Pi*t/t1p) }},
		Slow:   []func(float64) float64{func(t float64) float64 { return 1 + 0.8*math.Sin(2*math.Pi*t/t2p) }},
	}
	sol, err := Quasiperiodic(tt, t1p, t2p, nil, Options{N1: 25, N2: 15, Damping: true, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.NodeIndex("out")
	if err != nil {
		t.Fatal(err)
	}
	// The detector output (averaged over t1) must swing with the envelope.
	mins, maxs := math.Inf(1), math.Inf(-1)
	for j2 := 0; j2 < sol.N2(); j2++ {
		mean := 0.0
		for j1 := 0; j1 < sol.N1(); j1++ {
			mean += sol.X[j2][j1][out]
		}
		mean /= float64(sol.N1())
		if mean < mins {
			mins = mean
		}
		if mean > maxs {
			maxs = mean
		}
	}
	if maxs < 2*mins || maxs < 0.1 {
		t.Fatalf("envelope detector output should track the envelope: min %v max %v", mins, maxs)
	}
}

func TestSolutionEvalReproducesNodes(t *testing.T) {
	t1p, t2p := 1e-4, 1e-2
	sol, err := Quasiperiodic(twoToneRC(t1p, t2p), t1p, t2p, nil, Options{N1: 15, N2: 9})
	if err != nil {
		t.Fatal(err)
	}
	for j2 := 0; j2 < sol.N2(); j2++ {
		for j1 := 0; j1 < sol.N1(); j1++ {
			t1 := t1p * float64(j1) / float64(sol.N1())
			t2 := t2p * float64(j2) / float64(sol.N2())
			if math.Abs(sol.Eval(0, t1, t2)-sol.X[j2][j1][0]) > 1e-10 {
				t.Fatalf("Eval mismatch at (%d,%d)", j1, j2)
			}
		}
	}
}

func TestSolutionPeriodicity(t *testing.T) {
	t1p, t2p := 1e-4, 1e-2
	sol, err := Quasiperiodic(twoToneRC(t1p, t2p), t1p, t2p, nil, Options{N1: 15, N2: 9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Eval(0, 0.3*t1p+t1p, 0.6*t2p+3*t2p)-sol.Eval(0, 0.3*t1p, 0.6*t2p)) > 1e-10 {
		t.Fatal("bivariate solution must be doubly periodic")
	}
}

func TestQuasiperiodicBadArgs(t *testing.T) {
	sys := twoToneRC(1, 1)
	if _, err := Quasiperiodic(sys, -1, 1, nil, Options{}); err == nil {
		t.Fatal("negative period should fail")
	}
	if _, err := Quasiperiodic(sys, 1, 1, make([][][]float64, 3), Options{N1: 5, N2: 5}); err == nil {
		t.Fatal("bad guess shape should fail")
	}
}

// Malformed or non-finite periods and guesses are typed bad-input errors,
// rejected before any solve — never a panic or a Newton failure.
func TestQuasiperiodicInputsRejected(t *testing.T) {
	sys := twoToneRC(1e-4, 1e-2)
	opt := Options{N1: 5, N2: 4}
	guess := func(edit func(x [][][]float64)) [][][]float64 {
		x := make([][][]float64, opt.N2)
		for j2 := range x {
			x[j2] = make([][]float64, opt.N1)
			for j1 := range x[j2] {
				x[j2][j1] = make([]float64, sys.Dim())
			}
		}
		edit(x)
		return x
	}
	nan := math.NaN()
	cases := []struct {
		name     string
		t1p, t2p float64
		x0       [][][]float64
	}{
		{"T1=NaN", nan, 1e-2, nil},
		{"T1=0", 0, 1e-2, nil},
		{"T1=Inf", math.Inf(1), 1e-2, nil},
		{"T2=NaN", 1e-4, nan, nil},
		{"T2=-1", 1e-4, -1, nil},
		{"short-grid", 1e-4, 1e-2, guess(func(x [][][]float64) {})[1:]},
		{"short-line", 1e-4, 1e-2, guess(func(x [][][]float64) { x[1] = x[1][1:] })},
		{"state-count", 1e-4, 1e-2, guess(func(x [][][]float64) { x[2][3] = nil })},
		{"value=NaN", 1e-4, 1e-2, guess(func(x [][][]float64) { x[3][4][0] = nan })},
		{"value=Inf", 1e-4, 1e-2, guess(func(x [][][]float64) { x[0][1][0] = math.Inf(-1) })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Quasiperiodic(sys, c.t1p, c.t2p, c.x0, opt)
			if !solverr.IsKind(err, solverr.KindBadInput) {
				t.Fatalf("err = %v, want a %v error", err, solverr.KindBadInput)
			}
		})
	}
}

func TestTwoToneInputConsistency(t *testing.T) {
	sys := twoToneRC(1e-4, 1e-2)
	u1 := make([]float64, 1)
	u2 := make([]float64, 1)
	sys.Input(3.7e-3, u1)
	sys.Input2(3.7e-3, 3.7e-3, u2)
	if u1[0] != u2[0] {
		t.Fatal("Input(t) must equal Input2(t,t)")
	}
}
