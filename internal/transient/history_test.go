package transient

import (
	"testing"

	"math"

	"repro/internal/dae"
)

// TestHistoryRows checks the arena hands out independent, correctly sized
// rows across chunk boundaries.
func TestHistoryRows(t *testing.T) {
	const n = 3
	h := newHistory(n)
	rows := make([][]float64, 0, 2*historyChunkRows+5)
	src := make([]float64, n)
	for i := 0; i < 2*historyChunkRows+5; i++ {
		for j := range src {
			src[j] = float64(i*n + j)
		}
		rows = append(rows, h.row(src))
	}
	for i, r := range rows {
		if len(r) != n || cap(r) != n {
			t.Fatalf("row %d: len=%d cap=%d, want both %d", i, len(r), cap(r), n)
		}
		for j, v := range r {
			if v != float64(i*n+j) {
				t.Fatalf("row %d[%d] = %v, want %v (rows must not alias)", i, j, v, float64(i*n+j))
			}
		}
	}
}

// TestTransientHistoryAllocBudget pins the integration loop's allocation
// budget, closing the ROADMAP arena item: per-step history rows come from
// chunked arena blocks and every solver scratch buffer persists in the
// stepper, so a fixed-step run's allocation count is dominated by the
// amortized history storage — about one chunk per historyChunkRows steps
// plus the O(log steps) growth of the T/X index slices — instead of the
// historical several-allocations-per-step churn.
func TestTransientHistoryAllocBudget(t *testing.T) {
	sys := &dae.LinearRC{R: 1e3, C: 1e-6, IFunc: func(t float64) float64 { return 1e-3 * math.Sin(2*math.Pi*1e3*t) }}
	x0 := []float64{0}
	const steps = 4096
	const tEnd = 4096e-6
	opt := Options{Method: Trap, H: tEnd / steps}

	// Warm-up run outside the measured region (method tables, etc.).
	if _, err := Simulate(sys, x0, 0, tEnd, opt); err != nil {
		t.Fatal(err)
	}
	var sink float64
	allocs := testing.AllocsPerRun(3, func() {
		res, err := Simulate(sys, x0, 0, tEnd, opt)
		if err != nil {
			t.Error(err)
			return
		}
		sink = res.X[len(res.X)-1][0]
	})
	_ = sink
	// 4096 steps: ≈16 arena chunks, ≈2·13 index-slice doublings, ≈40 fixed
	// setup allocations (stepper scratch, Jacobian/LU workspaces, Newton
	// workspace, result struct). Budget 160 leaves ~2x headroom while
	// sitting three orders of magnitude under one-alloc-per-step.
	const budget = 160
	if allocs > budget {
		t.Errorf("fixed-step transient run (%d steps) allocated %.0f objects, budget %d", steps, allocs, budget)
	}
	t.Logf("allocs for %d steps: %.0f (%.4f/step)", steps, allocs, allocs/steps)
}

// BenchmarkTransientHistoryAllocs measures the same run for inspection with
// -benchmem; the test above holds its budget.
func BenchmarkTransientHistoryAllocs(b *testing.B) {
	sys := &dae.LinearRC{R: 1e3, C: 1e-6, IFunc: func(t float64) float64 { return 1e-3 * math.Sin(2*math.Pi*1e3*t) }}
	x0 := []float64{0}
	const steps = 4096
	const tEnd = 4096e-6
	opt := Options{Method: Trap, H: tEnd / steps}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(sys, x0, 0, tEnd, opt); err != nil {
			b.Fatal(err)
		}
	}
}
