package main

import (
	"strings"
	"testing"

	wampde "repro"
)

// TestLockTable pins the mode-locking verdicts to the lock range
// EXPERIMENTS.md documents, [0.97, 1.08]: outside it no row may read LOCKED,
// including rows where shooting converges onto a spurious far-away fixed
// point of the trapezoidal map.
func TestLockTable(t *testing.T) {
	const mu = 1.0
	free, err := wampde.AutonomousPSS(&wampde.VanDerPol{Mu: mu}, []float64{2, 0}, 6.6,
		wampde.ShootingOptions{Method: wampde.Trap})
	if err != nil {
		t.Fatal(err)
	}
	locked := map[float64]bool{0.97: true, 1.00: true, 1.03: true, 1.08: true}
	for _, row := range lockTable(mu, free) {
		if got := strings.HasPrefix(row.verdict, "LOCKED"); got != locked[row.ratio] {
			t.Errorf("f_inj/f0 = %.2f: verdict %q (|Floquet|max %s), want locked = %v",
				row.ratio, row.verdict, row.lead, locked[row.ratio])
		}
	}
}
