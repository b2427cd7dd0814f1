package core

import (
	"math"
	"sort"

	"repro/internal/fourier"
	"repro/internal/wave"
)

// Stats is the cost and supervision accounting both WaMPDE solvers report.
// The quasiperiodic solve has no t2 steps, so its step counters (LinearSolves,
// StepHalvings) stay zero.
type Stats struct {
	NewtonIterTotal int // cumulative Newton iterations (cost accounting)
	LinearSolves    int // cumulative linear solves
	// Rejected is always zero (no error-controlled stepping); bench/ and the
	// served supervision body still read it.
	Rejected int
	// JacobianEvals counts Jacobian assemblies + factorizations; JacobianReuses
	// counts Newton iterations that recycled a stale chord factorization
	// instead (see EnvelopeOptions.ChordNewton).
	JacobianEvals  int
	JacobianReuses int
	// Iterative-path accounting (LinearMatrixFree only; zero under dense LU):
	// GMRESMatVecs is the total operator applications across GMRESSolves
	// linear solves, the headline cost of the iterative path.
	GMRESSolves  int
	GMRESMatVecs int
	RecycleHits  int // always zero (no Krylov recycling); bench/ still reads it
	// Supervision accounting: failures the escalation ladders observed and
	// the rescues they ran (see DESIGN.md, "Failure semantics"). All zero on
	// a run where every first-choice solve converged — the common case.
	GMRESStagnations int // iterative solves that stagnated / hit budget
	GMRESBreakdowns  int // iterative solves that broke down
	// LinearGMRESRescues is always zero (the linear ladder has no GMRES
	// retry rung); bench/ and the served supervision body still read it.
	LinearGMRESRescues int
	LinearLURescues    int // linear rung 2: direct factorization fallbacks
	// LinearSparseLURescues counts the direct rescues that ran through the
	// sparse LU — today every one of them; kept apart from LinearLURescues
	// because the served supervision body reports both.
	LinearSparseLURescues int
	FullNewtonRescues     int // nonlinear rung 2: full Newton after chord
	DampedNewtonRescues   int // nonlinear rung 3: deep damped Newton
	ContinuationRescues   int // nonlinear rung 4: source-stepping continuation
	StepHalvings          int // ladder exhausted; t2 step halved and reset
}

// EnvelopeResult is the output of the envelope-following WaMPDE solver: the
// bivariate waveform x̂(t1, t2) sampled on N1 warped-time points at each
// accepted t2 point, the local frequency ω(t2), and the accumulated warping
// phase φ(t2) = ∫ω (in cycles, since the t1 period is normalized to 1).
type EnvelopeResult struct {
	N1, N int // t1 grid size and state dimension

	T2    []float64   // accepted t2 points
	X     [][]float64 // X[k][j*N+i]: state i at t1-sample j, t2 = T2[k]
	Omega []float64   // local frequency (Hz when t is in seconds)
	Phi   []float64   // warping phase in cycles, Phi[0] = 0

	Stats
}

// Slice returns the t1 waveform (N1 samples) of state i at t2 index k.
func (r *EnvelopeResult) Slice(k, i int) []float64 {
	out := make([]float64, r.N1)
	for j := 0; j < r.N1; j++ {
		out[j] = r.X[k][j*r.N+i]
	}
	return out
}

// OmegaSeries returns ω(t2) as a series — the paper's Figures 7 and 10.
func (r *EnvelopeResult) OmegaSeries() *wave.Series {
	return &wave.Series{T: append([]float64(nil), r.T2...), Y: append([]float64(nil), r.Omega...)}
}

// PhiAt returns the warping phase φ(t) (cycles) at arbitrary t within the
// solved span, using the same trapezoidal quadrature order as the solver
// (ω linear within a step ⇒ φ quadratic).
func (r *EnvelopeResult) PhiAt(t float64) float64 {
	k := r.segment(t)
	h := r.T2[k+1] - r.T2[k]
	s := (t - r.T2[k]) / h
	w0, w1 := r.Omega[k], r.Omega[k+1]
	return r.Phi[k] + h*(w0*s+(w1-w0)*s*s/2)
}

// OmegaAt returns the local frequency linearly interpolated at t.
func (r *EnvelopeResult) OmegaAt(t float64) float64 {
	k := r.segment(t)
	s := (t - r.T2[k]) / (r.T2[k+1] - r.T2[k])
	return (1-s)*r.Omega[k] + s*r.Omega[k+1]
}

func (r *EnvelopeResult) segment(t float64) int {
	n := len(r.T2)
	if t <= r.T2[0] {
		return 0
	}
	if t >= r.T2[n-1] {
		return n - 2
	}
	k := sort.SearchFloat64s(r.T2, t) - 1
	if k < 0 {
		k = 0
	}
	if k > n-2 {
		k = n - 2
	}
	return k
}

// At reconstructs the univariate solution x_i(t) = x̂_i(φ(t), t), eq. (15):
// trigonometric interpolation along t1 and linear interpolation along t2.
func (r *EnvelopeResult) At(i int, t float64) float64 {
	k := r.segment(t)
	tau := r.PhiAt(t)
	tau -= math.Floor(tau)
	s := (t - r.T2[k]) / (r.T2[k+1] - r.T2[k])
	v0 := fourier.Interpolate(r.Slice(k, i), tau)
	v1 := fourier.Interpolate(r.Slice(k+1, i), tau)
	return (1-s)*v0 + s*v1
}

// Reconstruct samples the univariate solution of state i on nPts uniform
// points over [t0, t1].
func (r *EnvelopeResult) Reconstruct(i int, t0, t1 float64, nPts int) (ts, ys []float64) {
	ts = make([]float64, nPts)
	ys = make([]float64, nPts)
	for p := 0; p < nPts; p++ {
		t := t0
		if nPts > 1 {
			t = t0 + (t1-t0)*float64(p)/float64(nPts-1)
		}
		ts[p] = t
		ys[p] = r.At(i, t)
	}
	return
}

// UnwrappedPhase returns the oscillation phase in cycles at time t — simply
// φ(t), since the reconstruction advances one t1 period per cycle. This is
// the quantity whose error stays bounded in the WaMPDE (Figure 12).
func (r *EnvelopeResult) UnwrappedPhase(t float64) float64 { return r.PhiAt(t) }

// QPResult is the output of the quasiperiodic WaMPDE solver (§4.1): x̂ on
// an N1×N2 grid, (1, T2)-periodic, with a T2-periodic ω(t2).
type QPResult struct {
	N1, N2, N int
	T2        float64
	X         [][][]float64 // X[j2][j1] = state vector at (t1_j1, t2_j2)
	Omega     []float64     // ω at the N2 slow-time points

	Stats
}

// OmegaMean returns the average local frequency ω₀ of eq. (21).
func (r *QPResult) OmegaMean() float64 {
	s := 0.0
	for _, w := range r.Omega {
		s += w
	}
	return s / float64(len(r.Omega))
}

// Eval evaluates state i at (t1, t2): trigonometric interpolation in t1,
// linear periodic interpolation in t2.
func (r *QPResult) Eval(i int, t1, t2 float64) float64 {
	f2 := math.Mod(t2/r.T2, 1)
	if f2 < 0 {
		f2++
	}
	y := f2 * float64(r.N2)
	j0 := int(y) % r.N2
	j1 := (j0 + 1) % r.N2
	w := y - math.Floor(y)
	return (1-w)*r.evalRow(i, j0, t1) + w*r.evalRow(i, j1, t1)
}

func (r *QPResult) evalRow(i, j2 int, t1 float64) float64 {
	samples := make([]float64, r.N1)
	for j1 := 0; j1 < r.N1; j1++ {
		samples[j1] = r.X[j2][j1][i]
	}
	return fourier.Interpolate(samples, t1)
}

// OmegaAt returns ω(t2), linearly interpolated with periodic wrap.
func (r *QPResult) OmegaAt(t2 float64) float64 {
	f2 := math.Mod(t2/r.T2, 1)
	if f2 < 0 {
		f2++
	}
	y := f2 * float64(r.N2)
	j0 := int(y) % r.N2
	j1 := (j0 + 1) % r.N2
	w := y - math.Floor(y)
	return (1-w)*r.Omega[j0] + w*r.Omega[j1]
}

// PhiAt integrates ω from 0 to t (cycles) using per-segment trapezoids of
// the periodic linear interpolant.
func (r *QPResult) PhiAt(t float64) float64 {
	if t == 0 {
		return 0
	}
	sign := 1.0
	if t < 0 {
		sign, t = -1, -t
	}
	h := r.T2 / float64(r.N2)
	phi := 0.0
	// Whole periods first.
	var periodPhi float64
	for j := 0; j < r.N2; j++ {
		periodPhi += h * (r.Omega[j] + r.Omega[(j+1)%r.N2]) / 2
	}
	full := math.Floor(t / r.T2)
	phi += full * periodPhi
	rem := t - full*r.T2
	steps := int(rem / h)
	for j := 0; j < steps; j++ {
		phi += h * (r.Omega[j%r.N2] + r.Omega[(j+1)%r.N2]) / 2
	}
	last := rem - float64(steps)*h
	if last > 0 {
		w0 := r.OmegaAt(float64(steps) * h)
		w1 := r.OmegaAt(float64(steps)*h + last)
		phi += last * (w0 + w1) / 2
	}
	return sign * phi
}

// At reconstructs the univariate quasiperiodic solution x_i(t) per eq. (17).
func (r *QPResult) At(i int, t float64) float64 {
	tau := r.PhiAt(t)
	tau -= math.Floor(tau)
	return r.Eval(i, tau, math.Mod(t, r.T2))
}
