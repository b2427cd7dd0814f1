package core

import (
	"repro/internal/solverr"
)

// WarmStart carries a periodic orbit from one solved parameter point to a
// neighboring one in a continuation-ordered sweep (Bittner/Brachtendorf's
// optimal-frequency-sweep observation: along a tuning curve the limit cycle
// drifts slowly, so the previous point's converged orbit is an excellent
// start for the next).
//
// The carrier is advisory: InitialCondition first checks that the orbit is
// compatible (dimension, finiteness) and falls back to the cold start when
// it is not or when the warm attempt fails supervision — the fallback is
// counted so sweep drivers can report it in per-point metadata. On success
// InitialCondition refreshes the carrier with its own orbit, so a sweep
// driver only threads one *WarmStart through the chain.
//
// A WarmStart is not safe for concurrent use; each sweep lane owns one.
type WarmStart struct {
	// Param records the sweep coordinate the orbit was harvested at (a
	// control voltage); drivers use it to rescale the carried period.
	Param float64

	// Periodic orbit: a state X0 on the limit cycle and the period T, the
	// shooting product InitialCondition can restart from without the settling
	// transient.
	X0 []float64
	T  float64

	// Uses counts successful warm adoptions; Fallbacks counts warm attempts
	// that failed supervision and fell back to the cold path. Sweep drivers
	// read the per-point deltas for metadata.
	Uses      int
	Fallbacks int
}

// HasOrbit reports whether the carrier holds a finite periodic orbit of the
// given state dimension.
func (w *WarmStart) HasOrbit(dim int) bool {
	if w == nil || len(w.X0) != dim || !(w.T > 0) {
		return false
	}
	return solverr.CheckFinite("core.warmstart", w.X0) == nil
}

// SetOrbit stores a periodic orbit (copied) in the carrier.
func (w *WarmStart) SetOrbit(x0 []float64, t float64) {
	if w == nil {
		return
	}
	w.X0 = append(w.X0[:0:0], x0...)
	w.T = t
}
