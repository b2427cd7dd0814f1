package wampde_test

// Armed golden-tolerance suite: the Figure-7 pipeline runs at the golden
// resolution with deterministic faults injected mid-envelope, and its ω(t2)
// output must still land within the committed golden's tolerance. This is
// the end-to-end supervision guarantee — every rescue rung not only fires
// (internal/core/supervision_test.go proves which), it hands back a solution
// of the same quality the unarmed pipeline produces.
//
// Plans are armed after the initial condition: the IC's own transient and
// shooting solves pass through the same fault sites and would consume the
// planned firings before the envelope starts.

import (
	"math"
	"path/filepath"
	"testing"

	wampde "repro"
	"repro/internal/core"
	"repro/internal/faultinject"
)

// armedVacuumFigure7 repeats goldenVacuumRun's computation (N1 = 17,
// 60 µs, 100 steps) with plan armed for the envelope phase only.
func armedVacuumFigure7(t *testing.T, plan *faultinject.Plan) *core.EnvelopeResult {
	t.Helper()
	vco, err := wampde.NewPaperVCO(false)
	if err != nil {
		t.Fatal(err)
	}
	u0 := vco.StaticDisplacement(vco.Params.VCtl(0))
	xhat0, omega0, err := core.InitialCondition(vco, []float64{0.5, 0, u0, 0},
		1/wampde.VCONominalFreq, core.ICOptions{N1: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Arm(plan)()
	res, err := core.Envelope(vco, xhat0, omega0, 60e-6, core.EnvelopeOptions{
		N1: 17, H2: 60e-6 / 100, Trap: true,
	})
	if err != nil {
		t.Fatalf("armed envelope failed: %v", err)
	}
	return res
}

// requireWithinFigure7Golden compares (T2, Omega) against the committed
// fig07 golden at its own tolerance (atol 1e-9, rtol 1e-5).
func requireWithinFigure7Golden(t *testing.T, res *core.EnvelopeResult) {
	t.Helper()
	headers, want, err := readGolden(filepath.Join("testdata", "goldens", "fig07_frequency.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got := [][]float64{res.T2, res.Omega}
	const atol, rtol = 1e-9, 1e-5
	for j := range want {
		if len(got[j]) != len(want[j]) {
			t.Fatalf("column %s: %d rows, golden has %d (the fault changed the accepted-step grid)",
				headers[j], len(got[j]), len(want[j]))
		}
		for i := range want[j] {
			if diff := math.Abs(got[j][i] - want[j][i]); diff > atol+rtol*math.Abs(want[j][i]) {
				t.Fatalf("%s row %d: got %.12g, want %.12g (diff %.3g exceeds golden tolerance)",
					headers[j], i, got[j][i], want[j][i], diff)
			}
		}
	}
}

func TestFaultArmedFigure7WithinGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("armed integration experiment")
	}
	cases := []struct {
		name  string
		plan  *faultinject.Plan
		fired func(*core.EnvelopeResult) int // the rescue counter the fault must bump
	}{
		{
			name:  "newton-fail-full-rescue",
			plan:  faultinject.NewPlan().Fail(faultinject.SiteNewtonFail, faultinject.Times(1)),
			fired: func(r *core.EnvelopeResult) int { return r.FullNewtonRescues },
		},
		{
			name:  "newton-fail-deep-rescue",
			plan:  faultinject.NewPlan().Fail(faultinject.SiteNewtonFail, faultinject.Times(2)),
			fired: func(r *core.EnvelopeResult) int { return r.DampedNewtonRescues },
		},
		{
			name:  "newton-fail-continuation-rescue",
			plan:  faultinject.NewPlan().Fail(faultinject.SiteNewtonFail, faultinject.Times(3)),
			fired: func(r *core.EnvelopeResult) int { return r.ContinuationRescues },
		},
		{
			name:  "newton-residual-nan",
			plan:  faultinject.NewPlan().Fail(faultinject.SiteNewtonResidualNaN, faultinject.Times(1)),
			fired: func(r *core.EnvelopeResult) int { return r.FullNewtonRescues },
		},
		{
			name:  "dense-lu-singular",
			plan:  faultinject.NewPlan().Fail(faultinject.SiteDenseLUSingular, faultinject.Times(1)),
			fired: func(r *core.EnvelopeResult) int { return r.FullNewtonRescues },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := armedVacuumFigure7(t, tc.plan)
			if tc.fired(res) == 0 {
				t.Fatal("the planned fault never forced its rescue rung — the case proves nothing")
			}
			requireWithinFigure7Golden(t, res)
		})
	}
}

// TestFaultArmedFigure7GMRESAllStagnate drives the matrix-free linear path
// with GMRES permanently broken: every solve must fall through the ladder to
// the direct sparse-LU rung, and the pipeline must still reproduce Figure 7
// within golden tolerance.
func TestFaultArmedFigure7GMRESAllStagnate(t *testing.T) {
	if testing.Short() {
		t.Skip("armed integration experiment")
	}
	vco, err := wampde.NewPaperVCO(false)
	if err != nil {
		t.Fatal(err)
	}
	u0 := vco.StaticDisplacement(vco.Params.VCtl(0))
	xhat0, omega0, err := core.InitialCondition(vco, []float64{0.5, 0, u0, 0},
		1/wampde.VCONominalFreq, core.ICOptions{N1: 17})
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan().Fail(faultinject.SiteGMRESStagnate, faultinject.Always())
	defer faultinject.Arm(plan)()
	res, err := core.Envelope(vco, xhat0, omega0, 60e-6, core.EnvelopeOptions{
		N1: 17, H2: 60e-6 / 100, Trap: true, Linear: core.LinearMatrixFree,
	})
	if err != nil {
		t.Fatalf("armed envelope failed: %v", err)
	}
	if res.LinearLURescues == 0 || res.LinearLURescues != res.GMRESSolves {
		t.Fatalf("LU rescues = %d, solves = %d: every solve should have landed on the direct rung",
			res.LinearLURescues, res.GMRESSolves)
	}
	requireWithinFigure7Golden(t, res)
}
