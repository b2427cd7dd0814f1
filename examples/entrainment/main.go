// Example entrainment demonstrates the §4.1 special cases of the WaMPDE
// classification — mode locking (entrainment, ω0 = ω2) and period
// multiplication (ω0 = ω2/m) — on an injected van der Pol oscillator.
//
// Inside the lock range a stable T_inj-periodic orbit exists: forced
// shooting converges and all Floquet multipliers lie inside the unit
// circle. Outside the lock range the periodic orbit loses stability (a
// multiplier crosses the unit circle) and the response is quasiperiodic.
// With forcing near twice the natural frequency, the oscillator locks
// subharmonically: the response period is twice the forcing period —
// "period multiplication ... often designed for (e.g., in frequency
// dividing circuits)" (§4.1).
package main

import (
	"fmt"
	"log"
	"math"
	"math/cmplx"

	wampde "repro"
)

func main() {
	const mu = 1.0
	free := &wampde.VanDerPol{Mu: mu}
	pss, err := wampde.AutonomousPSS(free, []float64{2, 0}, 6.6, wampde.ShootingOptions{Method: wampde.Trap})
	if err != nil {
		log.Fatal(err)
	}
	f0 := 1 / pss.T
	fmt.Printf("free-running van der Pol (μ=%.1f): f0 = %.5f\n", mu, f0)

	fmt.Println("\n--- fundamental mode locking (ω0 = ω2), injection amplitude 0.5 ---")
	fmt.Println("f_inj/f0   |Floquet|max(≠1 dir)   verdict")
	for _, row := range lockTable(mu, pss) {
		fmt.Printf("  %.2f        %-18s  %s\n", row.ratio, row.lead, row.verdict)
	}

	fmt.Println("\n--- period multiplication (ω0 = ω2/2): forcing at 2·f0 ---")
	fInj := 2.00 * f0
	sys := &wampde.VanDerPol{Mu: mu, Force: func(t float64) float64 { return 1.5 * math.Sin(2*math.Pi*fInj*t) }}
	orbit, err := wampde.ShootingPSS(sys, append([]float64(nil), pss.X0...), 2/fInj,
		wampde.ShootingOptions{Method: wampde.Trap, PointsPerPeriod: 1024})
	if err != nil {
		log.Fatal(err)
	}
	mult, err := orbit.Floquet()
	if err != nil {
		log.Fatal(err)
	}
	maxMult := 0.0
	for _, m := range mult {
		if a := cmplx.Abs(m); a > maxMult {
			maxMult = a
		}
	}
	// Genuine period doubling: the state after ONE forcing period differs.
	halfDiff := 0.0
	for i := 0; i < 2; i++ {
		d := orbit.Orbit.At(1/fInj, i) - orbit.X0[i]
		halfDiff += d * d
	}
	fmt.Printf("period-2·T_inj orbit: stable (|Floquet|max = %.3f), |x(T_inj)−x(0)| = %.2f ≠ 0\n",
		maxMult, math.Sqrt(halfDiff))

	// The response's fundamental sits at f_inj/2: a frequency divider. Run
	// several periods of the locked orbit and count cycles.
	long, err := wampde.RunTransient(sys, orbit.X0, 0, 12/fInj,
		wampde.TransientOptions{Method: wampde.Trap, H: 1 / (fInj * 400)})
	if err != nil {
		log.Fatal(err)
	}
	inst := wampde.InstFrequency(long.T, long.Component(0))
	mean := 0.0
	for _, v := range inst.Y {
		mean += v
	}
	mean /= float64(len(inst.Y))
	fmt.Printf("measured response fundamental: %.5f = %.3f·f_inj (frequency divider, ω0 = ω2/2 ✓)\n",
		mean, mean/fInj)
}

// lockRatios are the injection frequencies, in units of f0, that the
// mode-locking table scans; EXPERIMENTS.md puts the lock range at
// [0.97, 1.08].
var lockRatios = []float64{0.85, 0.92, 0.97, 1.00, 1.03, 1.08, 1.15}

// lockRow is one row of the mode-locking table.
type lockRow struct {
	ratio         float64
	lead, verdict string
}

// lockTable classifies fundamental locking at each of lockRatios under
// injection amplitude 0.5.
func lockTable(mu float64, freeRun *wampde.PSS) []lockRow {
	f0 := 1 / freeRun.T
	rows := make([]lockRow, len(lockRatios))
	for i, ratio := range lockRatios {
		verdict, lead := lockVerdict(mu, 0.5, ratio*f0, 1, freeRun)
		rows[i] = lockRow{ratio, lead, verdict}
	}
	return rows
}

// lockVerdict looks for a (harmonic·T_inj)-periodic orbit by shooting and
// classifies its stability via Floquet multipliers.
func lockVerdict(mu, amp, fInj float64, harmonic int, freeRun *wampde.PSS) (string, string) {
	sys := &wampde.VanDerPol{Mu: mu, Force: func(t float64) float64 { return amp * math.Sin(2*math.Pi*fInj*t) }}
	period := float64(harmonic) / fInj
	// Start from the free-running orbit state (a point on the cycle).
	x0 := append([]float64(nil), freeRun.X0...)
	pss, err := wampde.ShootingPSS(sys, x0, period, wampde.ShootingOptions{
		Method: wampde.Trap, PointsPerPeriod: 512, MaxIter: 60,
	})
	if err != nil {
		return "no periodic orbit found (unlocked/quasiperiodic)", "-"
	}
	mult, err := pss.Floquet()
	if err != nil {
		return "multiplier computation failed", "-"
	}
	// For a forced (non-autonomous) orbit all multipliers matter.
	max := 0.0
	for _, m := range mult {
		if a := cmplx.Abs(m); a > max {
			max = a
		}
	}
	lead := fmt.Sprintf("%.3f", max)
	// Degenerate locks: shooting can converge onto a tiny near-equilibrium
	// orbit, or onto a far-away fixed point of the trapezoidal map (|x| ~
	// 1e7, monodromy ≈ I) that no physical orbit reaches. Locked orbits
	// peak at 2.14–2.22, against the free-running 2.01.
	peak := orbitPeak(pss)
	if peak < 0.5 {
		return "no oscillatory orbit", lead
	}
	if peak > 2*orbitPeak(freeRun) {
		return "no bounded orbit (spurious fixed point)", lead
	}
	if max <= 1.001 {
		return "LOCKED (stable periodic orbit)", lead
	}
	return "unstable periodic orbit (outside lock range)", lead
}

// orbitPeak is the largest |x| the orbit reaches.
func orbitPeak(p *wampde.PSS) float64 {
	peak := 0.0
	for _, xs := range p.Orbit.X {
		peak = math.Max(peak, math.Abs(xs[0]))
	}
	return peak
}
