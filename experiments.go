package wampde

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/transient"
	"repro/internal/wave"
)

// This file contains the drivers that regenerate the paper's §5
// experiments. They are shared by the cmd/ harnesses, the benchmarks in
// bench_test.go and the integration tests, so every consumer measures the
// same computation.

// VCORunConfig parameterizes a §5 VCO experiment.
type VCORunConfig struct {
	Air   bool    // vacuum (Figures 7–9) or air (Figures 10–12)
	N1    int     // warped-axis collocation points (default 25)
	T2End float64 // simulated span (defaults: 60 µs vacuum, 3 ms air)
	Steps int     // nominal t2 steps (defaults: 400 vacuum, 600 air)
	// ChordNewton carries the chord factorization across t2 steps (see
	// core.EnvelopeOptions.ChordNewton). Off by default so the golden-figure
	// suite pins the historical once-per-step factorization bitwise; the cmd
	// drivers turn it on.
	ChordNewton bool
	// MatrixFree solves the per-step Jacobian systems iteratively, applying
	// the bordered step Jacobian without assembling it — core.LinearMatrixFree,
	// the spectral-operator path (see DESIGN.md, "Matrix-free operator").
	// Off by default: at the paper's 4-state VCO the assembled Jacobian is
	// tiny and the dense path is both faster and the one the goldens pin.
	MatrixFree bool
	// Ctx, when non-nil, makes the run cancelable (see
	// core.EnvelopeOptions.Ctx). On cancellation RunPaperVCO returns the
	// partial run accumulated so far together with the error, so a driver
	// under -timeout can still emit what was computed.
	Ctx context.Context
}

func (c VCORunConfig) withDefaults() VCORunConfig {
	if c.N1 <= 0 {
		c.N1 = 25
	}
	if c.T2End <= 0 {
		if c.Air {
			c.T2End = 3e-3 // the paper's 3 ms air-damped run
		} else {
			c.T2End = 60e-6 // 1.5 control periods, as in Figure 7's span
		}
	}
	if c.Steps <= 0 {
		if c.Air {
			c.Steps = 600
		} else {
			c.Steps = 400
		}
	}
	return c
}

// VCORun holds a completed WaMPDE VCO experiment.
type VCORun struct {
	VCO      *VCO
	Config   VCORunConfig
	IC       []float64 // x̂(·,0)
	Omega0   float64
	Result   *EnvelopeResult
	WallTime time.Duration
}

// RunPaperVCO executes the §5 experiment: compute the unforced-oscillator
// initial condition, then envelope-follow the WaMPDE over the configured
// span.
func RunPaperVCO(cfg VCORunConfig) (*VCORun, error) {
	cfg = cfg.withDefaults()
	vco, err := NewPaperVCO(cfg.Air)
	if err != nil {
		return nil, err
	}
	u0 := vco.StaticDisplacement(vco.Params.VCtl(0))
	xGuess := []float64{0.5, 0, u0, 0}
	start := time.Now()
	xhat0, omega0, err := core.InitialCondition(vco, xGuess, 1/VCONominalFreq, core.ICOptions{N1: cfg.N1})
	if err != nil {
		return nil, fmt.Errorf("wampde: VCO initial condition: %w", err)
	}
	linear := core.LinearDenseLU
	if cfg.MatrixFree {
		linear = core.LinearMatrixFree
	}
	res, err := core.Envelope(vco, xhat0, omega0, cfg.T2End, core.EnvelopeOptions{
		N1:          cfg.N1,
		H2:          cfg.T2End / float64(cfg.Steps),
		Trap:        true,
		ChordNewton: cfg.ChordNewton,
		Linear:      linear,
		Ctx:         cfg.Ctx,
	})
	if err != nil {
		// A canceled (or failed) envelope still returns the partial result;
		// hand it to the caller alongside the error.
		if res != nil && len(res.T2) > 0 {
			return &VCORun{
				VCO: vco, Config: cfg, IC: xhat0, Omega0: omega0,
				Result: res, WallTime: time.Since(start),
			}, fmt.Errorf("wampde: VCO envelope: %w", err)
		}
		return nil, fmt.Errorf("wampde: VCO envelope: %w", err)
	}
	return &VCORun{
		VCO: vco, Config: cfg, IC: xhat0, Omega0: omega0,
		Result: res, WallTime: time.Since(start),
	}, nil
}

// FrequencyRange returns the min and max local frequency over the run —
// the paper's "varies by a factor of almost 3" observation (Figure 7).
func (r *VCORun) FrequencyRange() (min, max float64) {
	min, max = math.Inf(1), 0
	for _, w := range r.Result.Omega {
		min = math.Min(min, w)
		max = math.Max(max, w)
	}
	return
}

// BivariateGrid samples the capacitor-voltage bivariate waveform on an
// nT2-point slow-time grid (rows) by N1 warped-time samples (columns) —
// the Figure 8/11 surface.
func (r *VCORun) BivariateGrid(nT2 int) [][]float64 {
	res := r.Result
	out := make([][]float64, nT2)
	for k := 0; k < nT2; k++ {
		tt := r.Config.T2End * float64(k) / float64(nT2-1)
		seg := 0
		for seg < len(res.T2)-2 && res.T2[seg+1] < tt {
			seg++
		}
		row := make([]float64, res.N1)
		for j := 0; j < res.N1; j++ {
			row[j] = res.X[seg][j*res.N+r.VCO.TankNode]
		}
		out[k] = row
	}
	return out
}

// TransientBaseline integrates the same circuit from the same initial state
// with the conventional method at the given resolution.
type TransientBaseline struct {
	PtsPerCycle float64
	Result      *TransientResult
	WallTime    time.Duration
	Steps       int
}

// RunTransientBaseline runs direct transient simulation from the run's
// initial state at ptsPerCycle points per nominal oscillation period, over
// [0, tEnd] (tEnd ≤ the run's span; 0 means the full span).
func (r *VCORun) RunTransientBaseline(ptsPerCycle float64, tEnd float64) (*TransientBaseline, error) {
	if tEnd <= 0 {
		tEnd = r.Config.T2End
	}
	x0 := append([]float64(nil), r.IC[:r.VCO.Dim()]...)
	start := time.Now()
	tr, err := transient.Simulate(r.VCO, x0, 0, tEnd, transient.Options{
		Method: transient.Trap,
		H:      1 / (VCONominalFreq * ptsPerCycle),
	})
	if err != nil {
		return nil, err
	}
	return &TransientBaseline{
		PtsPerCycle: ptsPerCycle, Result: tr,
		WallTime: time.Since(start), Steps: tr.Steps,
	}, nil
}

// PhaseErrorVs measures the accumulated phase difference (cycles) between
// the WaMPDE reconstruction and a transient baseline at time t — the
// Figure 12 metric.
func (r *VCORun) PhaseErrorVs(tr *TransientBaseline, t float64) float64 {
	upTo := math.Min(t*1.05, r.Config.T2End)
	nPts := int(upTo * r.Result.Omega[len(r.Result.Omega)-1] * 30)
	if nPts < 1000 {
		nPts = 1000
	}
	ts, ys := r.Result.Reconstruct(r.VCO.TankNode, 0, upTo, nPts)
	pa := wave.UnwrappedPhase(ts, ys)
	pb := wave.UnwrappedPhase(tr.Result.T, tr.Result.Component(r.VCO.TankNode))
	return wave.PhaseErrorAt(pa, pb, t)
}

// WaveformRMSVs returns the RMS difference between the WaMPDE
// reconstruction and a transient baseline over [0, tEnd] — the Figure 9
// overlay quantified.
func (r *VCORun) WaveformRMSVs(tr *TransientBaseline, tEnd float64) float64 {
	sum, cnt := 0.0, 0
	for i, tv := range tr.Result.T {
		if tv > tEnd {
			break
		}
		d := r.Result.At(r.VCO.TankNode, tv) - tr.Result.X[i][r.VCO.TankNode]
		sum += d * d
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(cnt))
}

// TimePointCount returns the number of solution time points the WaMPDE run
// computed: accepted t2 steps × N1 collocation samples. The paper's cost
// comparison is in this currency (its "two orders of magnitude" refers to
// the work transient simulation needs at 1000 points per cycle).
func (r *VCORun) TimePointCount() int {
	return len(r.Result.T2) * r.Result.N1
}

// SpeedupRow is one line of the headline cost/accuracy comparison.
type SpeedupRow struct {
	Method      string
	TimePoints  int
	WallTime    time.Duration
	PhaseErrEnd float64 // cycles, vs. the finest transient reference
}

// SpeedupReport reproduces the end-of-§5 experiment on the air-damped VCO:
// WaMPDE vs transient at 50/100/1000 points per cycle, with accumulated
// phase error measured against the 1000-points-per-cycle reference at
// measureAt (defaults to 95% of the span).
func SpeedupReport(cfg VCORunConfig, measureAt float64) (*VCORun, []SpeedupRow, error) {
	cfg.Air = true
	cfg = cfg.withDefaults()
	if measureAt <= 0 {
		measureAt = 0.95 * cfg.T2End
	}
	run, err := RunPaperVCO(cfg)
	if err != nil {
		return nil, nil, err
	}
	ref, err := run.RunTransientBaseline(1000, 0)
	if err != nil {
		return nil, nil, err
	}
	refPhase := wave.UnwrappedPhase(ref.Result.T, ref.Result.Component(run.VCO.TankNode))

	rows := []SpeedupRow{{
		Method:     "WaMPDE",
		TimePoints: run.TimePointCount(),
		WallTime:   run.WallTime,
	}}
	ts, ys := run.Result.Reconstruct(run.VCO.TankNode, 0, cfg.T2End, run.TimePointCount()*40)
	rows[0].PhaseErrEnd = wave.PhaseErrorAt(wave.UnwrappedPhase(ts, ys), refPhase, measureAt)

	for _, ppc := range []float64{50, 100} {
		tr, err := run.RunTransientBaseline(ppc, 0)
		if err != nil {
			return nil, nil, err
		}
		ph := wave.UnwrappedPhase(tr.Result.T, tr.Result.Component(run.VCO.TankNode))
		rows = append(rows, SpeedupRow{
			Method:      fmt.Sprintf("transient %.0f pts/cycle", ppc),
			TimePoints:  tr.Steps,
			WallTime:    tr.WallTime,
			PhaseErrEnd: wave.PhaseErrorAt(ph, refPhase, measureAt),
		})
	}
	rows = append(rows, SpeedupRow{
		Method:     "transient 1000 pts/cycle (reference)",
		TimePoints: ref.Steps,
		WallTime:   ref.WallTime,
	})
	return run, rows, nil
}

// DefaultVCOParams exposes the calibrated vacuum parameters (see DESIGN.md).
func DefaultVCOParams() VCOParams { return circuit.DefaultVCOParams() }

// AirVCOParams exposes the calibrated air-damped parameters.
func AirVCOParams() VCOParams { return circuit.AirVCOParams() }

// NewVCO builds a §5 VCO from explicit parameters.
func NewVCO(p VCOParams) (*VCO, error) { return circuit.NewVCO(p) }
