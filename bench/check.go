package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	wampde "repro"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/transient"
)

// Output checks. Each limit sits above today's value with room for the
// harmless drift of a numerically different but equally valid solver, and
// below where the result would stop meaning what the workload claims.
const (
	// maxPhaseErrCycles bounds the WaMPDE's phase error at 95% of the span
	// against the 1000 pts/cycle transient (the paper's Figure 12 metric).
	maxPhaseErrCycles = 0.15
	// maxOmegaRelErr bounds the matrix-free ω track against dense LU: both
	// solve the same collocation equations, so they agree to solver
	// tolerance.
	maxOmegaRelErr = 1e-6
	// maxRippleErrV bounds the ripple envelope's cycle mean against the
	// transient's, past the start-up ring (3% of the 12 V rail).
	maxRippleErrV = 0.4
)

// phaseErrCycles is the accumulated phase difference, in cycles, between
// the WaMPDE reconstruction and the transient at 95% of the span.
func phaseErrCycles(vco *circuit.VCO, span float64, env *core.EnvelopeResult, tr *transient.Result) float64 {
	run := &wampde.VCORun{VCO: vco, Config: wampde.VCORunConfig{Air: true, T2End: span}, Result: env}
	return run.PhaseErrorVs(&wampde.TransientBaseline{Result: tr}, 0.95*span)
}

// omegaRelErr is the largest relative difference between two ω tracks over
// the same t2 grid (+Inf when the grids differ).
func omegaRelErr(a, b *core.EnvelopeResult) float64 {
	if len(a.Omega) != len(b.Omega) {
		return math.Inf(1)
	}
	worst := 0.0
	for i, w := range a.Omega {
		worst = math.Max(worst, math.Abs(w-b.Omega[i])/math.Abs(b.Omega[i]))
	}
	return worst
}

// rippleStartup is how many switching periods the ripple check skips: the
// start-up ring of the output filter (a 1.7 V cycle-mean difference at
// 0.5 ms, 0.35 V at 3 ms) has died out by 5 ms. After it the difference
// peaks at each duty crest, at about 0.32 V.
const rippleStartup = 500

// rippleErrV is the largest difference between the ripple envelope's cycle
// mean of state k at each t2 point past start-up and the transient's mean
// over the switching period centered there.
func rippleErrV(env *core.EnvelopeResult, tr *transient.Result, k int, tsw float64) float64 {
	const samples = 256
	worst := 0.0
	tEnd := tr.T[len(tr.T)-1]
	for i, t2 := range env.T2 {
		if t2 < rippleStartup*tsw || t2 > tEnd-tsw {
			continue
		}
		em := 0.0
		for j := 0; j < env.N1; j++ {
			em += env.X[i][j*env.N+k]
		}
		em /= float64(env.N1)
		tm := 0.0
		for s := 0; s < samples; s++ {
			tm += tr.At(t2-tsw/2+float64(s)/samples*tsw, k)
		}
		tm /= samples
		worst = math.Max(worst, math.Abs(em-tm))
	}
	return worst
}

// finiteJSON checks that body decodes as JSON whose numbers are all finite.
func finiteJSON(body []byte) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return fmt.Errorf("body does not decode: %w", err)
	}
	return finiteValue(v)
}

func finiteValue(v any) error {
	switch x := v.(type) {
	case json.Number:
		f, err := x.Float64()
		if err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
			return fmt.Errorf("non-finite number %s", x)
		}
	case []any:
		for _, e := range x {
			if err := finiteValue(e); err != nil {
				return err
			}
		}
	case map[string]any:
		for _, e := range x {
			if err := finiteValue(e); err != nil {
				return err
			}
		}
	}
	return nil
}
