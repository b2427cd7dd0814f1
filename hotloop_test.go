package wampde_test

// Regression guards for the hot-loop allocation budgets of the dense and
// matrix-free envelope paths and for the chord-Newton factorization-reuse
// policy. BenchmarkHotLoopAllocs and BenchmarkGMRESAllocs in bench_test.go
// measure the two budgets; the tests here lock them in so `go test ./...`
// catches a regression without anyone reading benchmark output.

import (
	"math"
	"testing"

	wampde "repro"
	"repro/internal/core"
	"repro/internal/par"
)

// fig7IC computes the Fig. 7 (vacuum, N1=25) initial condition once per test
// that needs it, outside any measured region.
func fig7IC(t *testing.T) (*wampde.VCO, []float64, float64) {
	t.Helper()
	vco, err := wampde.NewPaperVCO(false)
	if err != nil {
		t.Fatal(err)
	}
	u0 := vco.StaticDisplacement(vco.Params.VCtl(0))
	ic, w0, err := core.InitialCondition(vco, []float64{0.5, 0, u0, 0}, 1/wampde.VCONominalFreq, core.ICOptions{N1: 25})
	if err != nil {
		t.Fatal(err)
	}
	return vco, ic, w0
}

// TestHotLoopAllocBudget pins the envelope solver's allocation budget: one
// Fig. 7 run (400 t2 steps) at one worker, on each linear path, must stay
// within a fixed number of heap allocations. With the FFT plans, LU/Newton
// and Krylov workspaces, Jacobian slots and preconditioner factors all
// persisting across steps, the dense run measures ~640 allocations (~1.6
// per accepted step; the per-point result records dominate) and the
// matrix-free run ~740, although it applies its operator ~44,000 times.
// The budgets sit ~1.7x and ~4x above those counts: far under the tens of
// thousands that per-step churn, or one allocation per matvec, would cost.
func TestHotLoopAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping full Fig. 7 envelope run")
	}
	vco, ic, w0 := fig7IC(t)
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)

	const t2End = 60e-6
	for _, c := range []struct {
		name   string
		linear core.LinearKind
		budget float64
	}{
		{"dense", core.LinearDenseLU, 1100},
		{"matrix-free", core.LinearMatrixFree, 3000},
	} {
		t.Run(c.name, func(t *testing.T) {
			opt := core.EnvelopeOptions{N1: 25, H2: t2End / 400, Trap: true, Linear: c.linear}
			allocs := testing.AllocsPerRun(1, func() {
				res, err := core.Envelope(vco, ic, w0, t2End, opt)
				if err != nil {
					t.Error(err)
					return
				}
				sinkF = res.Omega[len(res.Omega)-1]
			})
			if allocs > c.budget {
				t.Errorf("Fig. 7 envelope run allocated %.0f objects, budget %.0f", allocs, c.budget)
			}
		})
	}
}

// TestChordNewtonReducesFactorizations checks the chord-Newton acceptance
// criteria on the Fig. 7 pipeline: carrying the factorization across t2 steps
// must cut the number of Jacobian factorizations without blowing up the
// iteration count (each reused-Jacobian iteration is far cheaper than a
// factorization, so a modest iteration increase is the expected trade), and
// the computed envelope must agree with the fresh-factorization run to well
// within the Newton tolerance.
func TestChordNewtonReducesFactorizations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping envelope runs")
	}
	vco, ic, w0 := fig7IC(t)

	const t2End = 60e-6
	base := core.EnvelopeOptions{N1: 25, H2: t2End / 400, Trap: true}
	chordOpt := base
	chordOpt.ChordNewton = true

	def, err := core.Envelope(vco, ic, w0, t2End, base)
	if err != nil {
		t.Fatal(err)
	}
	chord, err := core.Envelope(vco, ic, w0, t2End, chordOpt)
	if err != nil {
		t.Fatal(err)
	}

	if def.JacobianReuses == 0 || chord.JacobianReuses == 0 {
		t.Errorf("expected within-solve factorization reuse in both modes, got default=%d chord=%d",
			def.JacobianReuses, chord.JacobianReuses)
	}
	if chord.JacobianEvals >= def.JacobianEvals {
		t.Errorf("chord mode factored %d Jacobians, default %d; want strictly fewer",
			chord.JacobianEvals, def.JacobianEvals)
	}
	if lim := def.NewtonIterTotal + (def.NewtonIterTotal+4)/5; chord.NewtonIterTotal > lim {
		t.Errorf("chord mode took %d Newton iterations, default %d; want at most +20%% (%d)",
			chord.NewtonIterTotal, def.NewtonIterTotal, lim)
	}

	// Same t2 grid (fixed steps, both runs accept every step) and matching
	// frequency trajectory: both solutions satisfy the same relative residual
	// tolerance, so ω may differ only at that level.
	if len(def.T2) != len(chord.T2) {
		t.Fatalf("step counts differ: default %d, chord %d", len(def.T2), len(chord.T2))
	}
	for i := range def.Omega {
		if d := math.Abs(def.Omega[i] - chord.Omega[i]); d > 1e-4*math.Abs(def.Omega[i]) {
			t.Errorf("omega[%d] differs beyond tolerance: default %.12g, chord %.12g", i, def.Omega[i], chord.Omega[i])
		}
	}
	t.Logf("factorizations: default %d, chord %d (%.1fx fewer); Newton iterations: %d vs %d",
		def.JacobianEvals, chord.JacobianEvals,
		float64(def.JacobianEvals)/float64(chord.JacobianEvals),
		def.NewtonIterTotal, chord.NewtonIterTotal)
}
