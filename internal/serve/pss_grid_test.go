package serve

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/solverr"
	"repro/internal/transient"
)

// The paper VCO's tuning grid: 321 control voltages in 2.5 mV steps over
// [1.2, 2.0] V. Points are named in units of 0.1 mV, so the volts are the
// nearest doubles to the decimal values a client would send.
const (
	pssGridFirst = 12000
	pssGridStep  = 25
	pssGridLen   = 321
)

func gridVolts(tenthMV int) float64 { return float64(tenthMV) / 10000 }

// pssGridAnchorFailures are the points where the preamble's shooting anchor
// still fails (see ROADMAP, the preamble item): 1.2025 V (the settled
// anchor sits at the swing's maximum), 1.79 V (at its minimum) and 1.995 V
// (at 74% of the swing, cause undiagnosed). Served shooting and HB must
// both report them as typed stagnation.
var pssGridAnchorFailures = map[int]bool{12025: true, 17900: true, 19950: true}

// pssGridWrongHB are the points where harmonic balance on its own
// collocation assembly, seeded by a backward-Euler shooting copy of the
// preamble, converged onto a frequency far from the oscillator's (which
// runs at 0.69–0.82 MHz over these points): 495,513 Hz at 1.2625 V,
// 462,490 at 1.265, 235,745 at 1.3525, 487,316 at 1.355, 123,140 at
// 1.4375, 502,658 at 1.5275, 523,606 at 1.6875 and 64,857 at 1.84 V.
var pssGridWrongHB = map[int]bool{
	12625: true, 12650: true, 13525: true, 13550: true,
	14375: true, 15275: true, 16875: true, 18400: true,
}

// TestPaperVCOPeriodicSteadyStateGrid walks the paper VCO's tuning grid
// through the engine for autonomous shooting and harmonic balance. Every
// point solves except the three anchor failures; shooting reports exactly
// the envelope preamble's ω0 from the same kicked DC start, and HB agrees
// with shooting to 1e-4. Under -short it walks every 8th point, the anchor
// failures and the points where HB once went wrong.
func TestPaperVCOPeriodicSteadyStateGrid(t *testing.T) {
	var points []int
	for i := 0; i < pssGridLen; i++ {
		p := pssGridFirst + i*pssGridStep
		if !testing.Short() || i%8 == 0 || pssGridAnchorFailures[p] || pssGridWrongHB[p] {
			points = append(points, p)
		}
	}
	ctx := context.Background()
	solved := map[string]int{}
	for _, p := range points {
		v := gridVolts(p)
		freq := map[string]float64{}
		for _, analysis := range []string{AnalysisShooting, AnalysisHB} {
			c, err := (&Request{Circuit: CircuitPaperVCO, VCtlDC: v, Analysis: analysis}).Canonicalize()
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := CircuitEngine{}.Solve(ctx, c)
			if pssGridAnchorFailures[p] {
				if !solverr.IsKind(err, solverr.KindStagnation) {
					t.Errorf("%s at %.4f V: err = %v, want %v", analysis, v, err, solverr.KindStagnation)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s at %.4f V: %v", analysis, v, err)
				continue
			}
			solved[analysis]++
			if out.Shooting != nil {
				freq[analysis] = out.Shooting.Freq
			} else {
				freq[analysis] = out.HB.Freq
			}
		}
		sh, okS := freq[AnalysisShooting]
		h, okH := freq[AnalysisHB]
		if okS && okH {
			if gap := math.Abs(h-sh) / sh; gap > 1e-4 {
				t.Errorf("%.4f V: hb freq %.6g Hz vs shooting %.6g Hz (relative gap %.2g)", v, h, sh, gap)
			}
		}
		if okS {
			if w0 := preambleOmega0(t, v); sh != w0 {
				t.Errorf("%.4f V: shooting freq %.17g Hz, envelope preamble ω0 %.17g", v, sh, w0)
			}
		}
	}
	want := len(points) - len(pssGridAnchorFailures)
	for _, analysis := range []string{AnalysisShooting, AnalysisHB} {
		t.Logf("%s solved %d of %d points", analysis, solved[analysis], len(points))
		if solved[analysis] != want {
			t.Errorf("%s solved %d of %d points, want %d", analysis, solved[analysis], len(points), want)
		}
	}
}

// preambleOmega0 is core.InitialCondition's ω0 for the paper VCO at vctl v,
// from the DC operating point with the oscillation variable kicked by 0.5.
func preambleOmega0(t *testing.T, v float64) float64 {
	t.Helper()
	c, err := (&Request{Circuit: CircuitPaperVCO, VCtlDC: v, Analysis: AnalysisShooting}).Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := CircuitEngine{}.buildSystem(c)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, sys.Dim())
	if err := transient.DCOperatingPoint(sys, 0, x); err != nil {
		t.Fatal(err)
	}
	x[sys.OscVar()] += 0.5
	_, w0, err := core.InitialCondition(sys, x, 1/c.F0, core.ICOptions{})
	if err != nil {
		t.Fatalf("%.4f V: preamble: %v", v, err)
	}
	return w0
}
