package wampde_test

// Determinism contract of the internal/par worker pool: every pooled kernel
// uses a chunk layout that depends only on the problem size, so solver
// output is bitwise identical at any worker count. These tests run the full
// WaMPDE envelope pipeline under several pool sizes and compare the results
// exactly. The dense envelope reaches the pool through its LU trailing
// updates, once its bordered system is large enough for a panel to dispatch;
// the quasiperiodic kernels and LU itself have their own worker sweeps in
// internal/core and internal/la.

import (
	"fmt"
	"runtime"
	"testing"

	wampde "repro"
	"repro/internal/par"
)

// shortVacuumRun envelope-follows the vacuum VCO over a reduced span. N1 =
// 76 gives a 305-unknown bordered system, the smallest whose first LU panel
// leaves enough trailing rows (257) for its update to go to the pool: one
// dispatch per factorization, 10 per run at two or more workers. A smaller
// N1 (the paper's 25 gives 101 unknowns) factors serially and never reaches
// the pool.
func shortVacuumRun(t *testing.T) *wampde.VCORun {
	t.Helper()
	run, err := wampde.RunPaperVCO(wampde.VCORunConfig{N1: 76, T2End: 10e-6, Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func sameRun(t *testing.T, want, got *wampde.VCORun, label string) {
	t.Helper()
	res, ref := got.Result, want.Result
	if len(res.Omega) != len(ref.Omega) || len(res.X) != len(ref.X) {
		t.Fatalf("%s: result shape differs: %d/%d steps vs %d/%d", label,
			len(res.Omega), len(res.X), len(ref.Omega), len(ref.X))
	}
	for k := range ref.Omega {
		if res.Omega[k] != ref.Omega[k] {
			t.Fatalf("%s: omega[%d] = %.17g, want bitwise %.17g", label, k, res.Omega[k], ref.Omega[k])
		}
	}
	for k := range ref.X {
		for j := range ref.X[k] {
			if res.X[k][j] != ref.X[k][j] {
				t.Fatalf("%s: X[%d][%d] = %.17g, want bitwise %.17g", label, k, j, res.X[k][j], ref.X[k][j])
			}
		}
	}
}

// TestEnvelopeWorkerDeterminism runs the same vacuum-VCO envelope with the
// pool pinned to 1, 2 and 8 workers and demands bitwise-identical local
// frequency and waveform trajectories.
func TestEnvelopeWorkerDeterminism(t *testing.T) {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	ref := shortVacuumRun(t)

	for _, w := range []int{2, 8} {
		par.SetWorkers(w)
		sameRun(t, ref, shortVacuumRun(t), fmt.Sprintf("workers=%d", w))
	}
}

// TestMatrixFreeWorkerDeterminism runs the matrix-free GMRES envelope (the
// iterative large-system path with chord Newton, as the cmd drivers
// configure it) at 1, 2 and 8 workers and demands bitwise-identical results
// and equal matvec counts. Its operator and harmonic preconditioner run as
// plain loops and no longer reach the pool; the test stays as a guard should
// one of them be handed back to it.
func TestMatrixFreeWorkerDeterminism(t *testing.T) {
	matFreeRun := func() *wampde.VCORun {
		run, err := wampde.RunPaperVCO(wampde.VCORunConfig{
			N1: 15, T2End: 20e-6, Steps: 60,
			ChordNewton: true, MatrixFree: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	ref := matFreeRun()
	if ref.Result.GMRESSolves == 0 {
		t.Fatal("the determinism configuration never reached GMRES")
	}

	for _, w := range []int{2, 8} {
		par.SetWorkers(w)
		got := matFreeRun()
		sameRun(t, ref, got, fmt.Sprintf("matrix-free workers=%d", w))
		if got.Result.GMRESMatVecs != ref.Result.GMRESMatVecs {
			t.Errorf("workers=%d: solver cost drifted: matvecs %d vs %d",
				w, got.Result.GMRESMatVecs, ref.Result.GMRESMatVecs)
		}
	}
}

// TestEnvelopeEnvWorkerOverride checks the WAMPDE_WORKERS environment
// override reaches the pool and preserves the same bitwise results.
func TestEnvelopeEnvWorkerOverride(t *testing.T) {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	ref := shortVacuumRun(t)

	par.SetWorkers(0) // clear the programmatic override so the env rules
	t.Setenv(par.EnvWorkers, "3")
	if got := par.Workers(); got != 3 {
		t.Fatalf("Workers() = %d with %s=3", got, par.EnvWorkers)
	}
	sameRun(t, ref, shortVacuumRun(t), par.EnvWorkers+"=3")
}

// TestParSpeedup asserts the ≥2× four-core speedup target on the
// BenchmarkParSpeedup configuration. It needs real cores to mean anything,
// so it is skipped on small machines and in -short runs (benchmarks remain
// the authoritative measurement; this is a regression tripwire).
func TestParSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >=4 CPUs to measure parallel speedup, have %d", runtime.NumCPU())
	}
	cfg := wampde.VCORunConfig{Air: true, N1: 49, T2End: 0.5e-3, Steps: 100}
	timeRun := func(workers int) float64 {
		prev := par.SetWorkers(workers)
		defer par.SetWorkers(prev)
		run, err := wampde.RunPaperVCO(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return run.WallTime.Seconds()
	}
	timeRun(1) // warm caches so both measurements see the same state
	serial := timeRun(1)
	parallel := timeRun(4)
	speedup := serial / parallel
	t.Logf("serial %.3fs, 4 workers %.3fs, speedup %.2fx", serial, parallel, speedup)
	if speedup < 2 {
		t.Errorf("parallel speedup %.2fx at 4 workers, want >= 2x", speedup)
	}
}
