package core

import (
	"math"

	"repro/internal/dae"
	"repro/internal/fourier"
	"repro/internal/la"
	"repro/internal/newton"
	"repro/internal/solverr"
)

// This file implements the paper's §4 formulation literally: equations
// (19)–(20) with the harmonic coefficients X̂_i(t2) as the unknowns — the
// "mixed frequency-time method" of footnote 4. The t1 dependence is a
// truncated Fourier series with N0 = 2M+1 terms (eq. (18)); the nonlinear
// terms Q̂_i, F̂_i are evaluated pseudo-spectrally (inverse DFT to samples,
// device evaluation, DFT back); and the t2 axis is time-stepped exactly as
// in the collocation solver. Because the collocation grid has the same
// number of degrees of freedom, the two formulations are unitarily
// equivalent; the spectral form is provided both as the paper's literal
// method and as a cross-check (see TestSpectralMatchesCollocation).

// SpectralOptions configures the frequency-domain envelope solver.
type SpectralOptions struct {
	M      int     // harmonics; N0 = 2M+1 unknowns per state (default 12)
	H2     float64 // t2 step (required)
	Trap   bool    // trapezoidal t2 integration
	Newton newton.Options
}

// SpectralResult is a frequency-domain envelope run: the harmonic
// coefficients X̂(t2) of each state and the local frequency.
type SpectralResult struct {
	M, N  int // harmonics and state dimension
	T2    []float64
	Coeff [][]complex128 // Coeff[k][(h+M)*n+i]: harmonic h of state i
	Omega []float64
	Phi   []float64

	NewtonIterTotal int
}

// Harmonic returns the coefficient of harmonic h (−M..M) of state i at t2
// index k.
func (r *SpectralResult) Harmonic(k, i, h int) complex128 {
	return r.Coeff[k][(h+r.M)*r.N+i]
}

// Waveform reconstructs the t1 waveform of state i at t2 index k on nPts
// uniform warped-time samples.
func (r *SpectralResult) Waveform(k, i, nPts int) []float64 {
	out := make([]float64, nPts)
	for p := 0; p < nPts; p++ {
		tau := float64(p) / float64(nPts)
		s := complex(0, 0)
		for h := -r.M; h <= r.M; h++ {
			c := r.Harmonic(k, i, h)
			ang := 2 * math.Pi * float64(h) * tau
			s += c * complex(math.Cos(ang), math.Sin(ang))
		}
		out[p] = real(s)
	}
	return out
}

// OmegaSeries returns copies of the t2 grid and ω(t2).
func (r *SpectralResult) OmegaSeries() ([]float64, []float64) {
	return append([]float64(nil), r.T2...), append([]float64(nil), r.Omega...)
}

// SpectralEnvelope integrates the WaMPDE in t2 in the frequency domain of
// t1. xhat0 is the initial bivariate waveform given as N1 uniform t1
// samples per state (the same layout Envelope uses, N1 = 2M+1 required);
// omega0 the initial frequency. The phase condition is eq. (20) with l = 1:
// Im{X̂_k¹(t2)} = 0 for k = sys.OscVar().
func SpectralEnvelope(sys dae.Autonomous, xhat0 []float64, omega0, t2End float64, opt SpectralOptions) (*SpectralResult, error) {
	if opt.M <= 0 {
		opt.M = 12
	}
	if opt.Newton.MaxIter <= 0 {
		opt.Newton.MaxIter = 30
	}
	if opt.Newton.TolF <= 0 {
		opt.Newton.TolF = 1e-8
	}
	opt.Newton.Damping = true
	n := sys.Dim()
	N := 2*opt.M + 1 // samples == coefficients
	if len(xhat0) != N*n {
		return nil, solverr.New(solverr.KindBadInput, "core.spectral",
			"spectral IC needs N1=2M+1=%d samples per state, got %d", N, len(xhat0)/n)
	}
	if err := solverr.CheckPositive("core.spectral", "SpectralOptions.H2", opt.H2); err != nil {
		return nil, err
	}
	if err := solverr.CheckPositive("core.spectral", "t2End", t2End); err != nil {
		return nil, err
	}
	if err := solverr.CheckPositive("core.spectral", "omega0", omega0); err != nil {
		return nil, err
	}
	k := sys.OscVar()
	if k < 0 || k >= n {
		return nil, ErrNeedOscillation
	}

	sp := &spectralAssembler{sys: sys, m: opt.M, n: n, k: k, opt: opt}
	sp.init()

	// Initial coefficients from the samples; rotate so Im X_k,1 = 0 (the
	// samples may be aligned for a different phase condition).
	coeff := sp.coeffFromSamples(xhat0)
	rotateToSpectralPhase(coeff, opt.M, n, k)

	res := &SpectralResult{M: opt.M, N: n}
	record := func(t2, omega float64, c []complex128) {
		res.T2 = append(res.T2, t2)
		res.Omega = append(res.Omega, omega)
		res.Coeff = append(res.Coeff, append([]complex128(nil), c...))
		if len(res.Phi) == 0 {
			res.Phi = append(res.Phi, 0)
		} else {
			kk := len(res.T2) - 1
			h := res.T2[kk] - res.T2[kk-1]
			res.Phi = append(res.Phi, res.Phi[kk-1]+h*(res.Omega[kk]+res.Omega[kk-1])/2)
		}
	}

	t2, omega := 0.0, omega0
	record(t2, omega, coeff)
	h := opt.H2
	hMin := h / 1024
	endTol := 1e-12 * t2End
	stepIdx := 0
	cNew := make([]complex128, len(coeff))
	for t2End-t2 > endTol {
		if t2+h > t2End {
			h = t2End - t2
		}
		copy(cNew, coeff)
		omegaNew := omega
		useTrap := opt.Trap && stepIdx >= 2
		iters, err := sp.step(t2, h, coeff, omega, cNew, &omegaNew, useTrap)
		res.NewtonIterTotal += iters
		if err != nil {
			if solverr.IsKind(err, solverr.KindCanceled) {
				return res, err
			}
			if h <= hMin {
				k := solverr.KindOf(err)
				if k == solverr.KindUnknown {
					k = solverr.KindStagnation
				}
				return res, solverr.Wrap(k, "core.spectral", err).
					WithMsg("spectral step failed at minimum step").WithT2(t2).WithStep(stepIdx)
			}
			h /= 2
			continue
		}
		t2 += h
		stepIdx++
		copy(coeff, cNew)
		omega = omegaNew
		record(t2, omega, coeff)
	}
	return res, nil
}

// rotateToSpectralPhase multiplies all harmonics by e^{-ih·arg(c1)} so the
// fundamental of state k is real and positive (eq. (20) with l=1).
func rotateToSpectralPhase(coeff []complex128, m, n, k int) {
	c1 := coeff[(1+m)*n+k]
	r := math.Hypot(real(c1), imag(c1))
	if r == 0 {
		return
	}
	// Unit phasor of c1; rotating by its conjugate makes c1 real positive.
	u := complex(real(c1)/r, imag(c1)/r)
	for h := -m; h <= m; h++ {
		rot := complex(1, 0)
		for p := 0; p < abs64(h); p++ {
			if h > 0 {
				rot *= complex(real(u), -imag(u))
			} else {
				rot *= u
			}
		}
		for i := 0; i < n; i++ {
			coeff[(h+m)*n+i] *= rot
		}
	}
}

func abs64(h int) int {
	if h < 0 {
		return -h
	}
	return h
}

// spectralAssembler carries the per-step frequency-domain Newton system.
// Real unknown layout y: for each state i: [c_0 (1), Re c_h, Im c_h for
// h=1..M] interleaved state-major per harmonic; plus ω at the end.
type spectralAssembler struct {
	sys  dae.Autonomous
	m, n int
	k    int
	opt  SpectralOptions

	u      []float64
	x      []float64    // samples scratch (N*n)
	qs     []float64    // q at samples
	fs     []float64    // f at samples
	qh     []complex128 // Q̂ harmonics (N*n, bin-major)
	fh     []complex128
	qhPrev []complex128
	rhsOld []complex128
	scale  []float64
	jq     *la.Dense
	jf     *la.Dense

	// Hoisted per-step solver state: the cached FFT plan and its gather /
	// transform scratch, the finite-difference Jacobian storage and its LU
	// workspace (refactored in place), and the Newton iteration scratch.
	plan       *fourier.Plan
	buf        []float64
	spec       []complex128
	stateScale []float64
	y, r0, rp  []float64
	yp         []float64
	workC      []complex128
	jj         *la.Dense
	lu         *la.LU
	nws        *newton.Workspace
}

func (sp *spectralAssembler) init() {
	N := 2*sp.m + 1
	total := sp.realDim() + 1
	sp.u = make([]float64, sp.sys.NumInputs())
	sp.x = make([]float64, N*sp.n)
	sp.qs = make([]float64, N*sp.n)
	sp.fs = make([]float64, N*sp.n)
	sp.qh = make([]complex128, N*sp.n)
	sp.fh = make([]complex128, N*sp.n)
	sp.qhPrev = make([]complex128, N*sp.n)
	sp.rhsOld = make([]complex128, N*sp.n)
	sp.scale = make([]float64, total)
	sp.jq = la.NewDense(sp.n, sp.n)
	sp.jf = la.NewDense(sp.n, sp.n)
	sp.plan = fourier.PlanFFT(N)
	sp.buf = make([]float64, N)
	sp.spec = make([]complex128, N)
	sp.stateScale = make([]float64, sp.n)
	sp.y = make([]float64, total)
	sp.r0 = make([]float64, total)
	sp.rp = make([]float64, total)
	sp.yp = make([]float64, total)
	sp.workC = make([]complex128, N*sp.n)
	sp.jj = la.NewDense(total, total)
	sp.lu = la.NewLU(total)
	sp.nws = newton.NewWorkspace(total)
}

func (sp *spectralAssembler) realDim() int { return (2*sp.m + 1) * sp.n }

// coeffFromSamples converts N uniform t1 samples (sample-major layout,
// x[j*n+i]) to signed-harmonic coefficients (harmonic-major layout).
func (sp *spectralAssembler) coeffFromSamples(samples []float64) []complex128 {
	N, n, m := 2*sp.m+1, sp.n, sp.m
	out := make([]complex128, N*n)
	buf := sp.buf
	for i := 0; i < n; i++ {
		for j := 0; j < N; j++ {
			buf[j] = samples[j*n+i]
		}
		c := fourier.Coefficients(buf)
		for h := -m; h <= m; h++ {
			out[(h+m)*n+i] = c[h+m]
		}
	}
	return out
}

// samplesFromCoeff synthesizes the N uniform samples of every state through
// the cached plan, transforming in place in the hoisted spectrum scratch.
func (sp *spectralAssembler) samplesFromCoeff(coeff []complex128, out []float64) {
	N, n, m := 2*sp.m+1, sp.n, sp.m
	spec := sp.spec
	for i := 0; i < n; i++ {
		// Build the DFT spectrum: bin b holds N·c_h with h = signed(b).
		for b := 0; b < N; b++ {
			h := fourier.HarmonicIndex(b, N)
			spec[b] = coeff[(h+m)*n+i] * complex(float64(N), 0)
		}
		sp.plan.Inverse(spec, spec)
		for j := 0; j < N; j++ {
			out[j*n+i] = real(spec[j])
		}
	}
}

// harmonicsOf transforms per-sample values (sample-major) to signed
// harmonics (harmonic-major) through the cached plan.
func (sp *spectralAssembler) harmonicsOf(samples []float64, out []complex128) {
	N, n, m := 2*sp.m+1, sp.n, sp.m
	buf, spec := sp.buf, sp.spec
	for i := 0; i < n; i++ {
		for j := 0; j < N; j++ {
			buf[j] = samples[j*n+i]
		}
		sp.plan.ForwardReal(spec, buf)
		for b := 0; b < N; b++ {
			h := fourier.HarmonicIndex(b, N)
			out[(h+m)*n+i] = spec[b] / complex(float64(N), 0)
		}
	}
}

// evalHarmonics computes Q̂ and F̂ of the current coefficients.
func (sp *spectralAssembler) evalHarmonics(coeff []complex128) {
	N, n := 2*sp.m+1, sp.n
	sp.samplesFromCoeff(coeff, sp.x)
	for j := 0; j < N; j++ {
		sp.sys.Q(sp.x[j*n:(j+1)*n], sp.qs[j*n:(j+1)*n])
		sp.sys.F(sp.x[j*n:(j+1)*n], sp.u, sp.fs[j*n:(j+1)*n])
	}
	sp.harmonicsOf(sp.qs, sp.qh)
	sp.harmonicsOf(sp.fs, sp.fh)
}

// packY/unpackY convert between complex coefficients and the real unknown
// vector (exploiting conjugate symmetry: only h >= 0 stored).
func (sp *spectralAssembler) packY(coeff []complex128, omega float64, y []float64) {
	n, m := sp.n, sp.m
	idx := 0
	for i := 0; i < n; i++ {
		y[idx] = real(coeff[(0+m)*n+i])
		idx++
		for h := 1; h <= m; h++ {
			y[idx] = real(coeff[(h+m)*n+i])
			y[idx+1] = imag(coeff[(h+m)*n+i])
			idx += 2
		}
	}
	y[idx] = omega
}

func (sp *spectralAssembler) unpackY(y []float64, coeff []complex128) float64 {
	n, m := sp.n, sp.m
	idx := 0
	for i := 0; i < n; i++ {
		coeff[(0+m)*n+i] = complex(y[idx], 0)
		idx++
		for h := 1; h <= m; h++ {
			c := complex(y[idx], y[idx+1])
			coeff[(h+m)*n+i] = c
			coeff[(-h+m)*n+i] = complex(real(c), -imag(c))
			idx += 2
		}
	}
	return y[idx]
}

// residual packs eq. (19) (h = 0..M) plus the phase row into r.
// rhs_h = (Q̂_h − Q̂_hᵖʳᵉᵛ)/h2 + θ·(j·h·2πω·Q̂_h + F̂_h) [+ (1−θ)·old].
func (sp *spectralAssembler) residual(coeff []complex128, omega, h2, theta float64, useTrap bool, r []float64) {
	n, m := sp.n, sp.m
	sp.evalHarmonics(coeff)
	idx := 0
	for i := 0; i < n; i++ {
		for h := 0; h <= m; h++ {
			qh := sp.qh[(h+m)*n+i]
			rhs := complex(0, 2*math.Pi*float64(h)*omega)*qh + sp.fh[(h+m)*n+i]
			v := (qh-sp.qhPrev[(h+m)*n+i])/complex(h2, 0) + complex(theta, 0)*rhs
			if useTrap {
				v += complex(1-theta, 0) * sp.rhsOld[(h+m)*n+i]
			}
			if h == 0 {
				r[idx] = real(v) / sp.scale[idx]
				idx++
			} else {
				r[idx] = real(v) / sp.scale[idx]
				r[idx+1] = imag(v) / sp.scale[idx+1]
				idx += 2
			}
		}
	}
	// Eq. (20), l = 1: Im X̂_k¹ = 0.
	r[idx] = imag(coeff[(1+m)*n+sp.k]) / sp.scale[idx]
}

// step advances one t2 step in coefficient space.
func (sp *spectralAssembler) step(t2, h2 float64, cOld []complex128, omegaOld float64, cNew []complex128, omegaNew *float64, useTrap bool) (int, error) {
	n, m := sp.n, sp.m
	total := sp.realDim() + 1
	sp.sys.Input(t2, sp.u)
	sp.evalHarmonics(cOld)
	copy(sp.qhPrev, sp.qh)
	theta := 1.0
	if useTrap {
		theta = 0.5
		for i := range sp.rhsOld {
			h := i/n - m
			sp.rhsOld[i] = complex(0, 2*math.Pi*float64(h)*omegaOld)*sp.qh[i] + sp.fh[i]
		}
	}
	sp.sys.Input(t2+h2, sp.u)

	// Scales from the previous level, one per STATE (not per harmonic):
	// high harmonics are tiny, and per-harmonic scaling would amplify
	// finite-difference noise on their rows into a garbage Jacobian.
	{
		// Per-state scales with a relative floor across states (algebraic
		// rows would otherwise get unreachable relative tolerances).
		stateScale := sp.stateScale
		maxScale := 0.0
		for i := 0; i < n; i++ {
			s := 0.0
			for h := 0; h <= m; h++ {
				qh := sp.qhPrev[(h+m)*n+i]
				rhs := complex(0, 2*math.Pi*float64(h)*omegaOld)*qh + sp.fh[(h+m)*n+i]
				if v := cAbs(qh)/h2 + cAbs(rhs); v > s {
					s = v
				}
			}
			stateScale[i] = s
			if s > maxScale {
				maxScale = s
			}
		}
		floor := 1e-6 * maxScale
		if floor == 0 {
			floor = 1
		}
		idx := 0
		for i := 0; i < n; i++ {
			s := stateScale[i]
			if s < floor {
				s = floor
			}
			for h := 0; h <= m; h++ {
				if h == 0 {
					sp.scale[idx] = s
					idx++
				} else {
					sp.scale[idx] = s
					sp.scale[idx+1] = s
					idx += 2
				}
			}
		}
		sp.scale[idx] = 1 + cAbs(cOld[(1+m)*n+sp.k])
	}

	y := sp.y
	sp.packY(cNew, *omegaNew, y)
	work := sp.workC

	eval := func(y, r []float64) error {
		omega := sp.unpackY(y, work)
		sp.residual(work, omega, h2, theta, useTrap, r)
		return nil
	}
	// Finite-difference Jacobian in coefficient space, assembled into the
	// persistent matrix (every entry is overwritten) and refactored into the
	// persistent LU workspace. The system is small ((2M+1)n+1).
	jac := func(y []float64) (newton.LinearSolve, error) {
		jj, r0, yp, rp := sp.jj, sp.r0, sp.yp, sp.rp
		if err := eval(y, r0); err != nil {
			return nil, err
		}
		copy(yp, y)
		for c := 0; c < total; c++ {
			step := 1e-7 * (1 + math.Abs(y[c]))
			yp[c] = y[c] + step
			if err := eval(yp, rp); err != nil {
				return nil, err
			}
			yp[c] = y[c]
			for rr := 0; rr < total; rr++ {
				jj.Set(rr, c, (rp[rr]-r0[rr])/step)
			}
		}
		if err := sp.lu.FactorInto(jj); err != nil {
			return nil, err
		}
		return sp.lu, nil
	}
	// Refreshed once per step and reused (chord iteration) via the infinite
	// contraction target, matching the collocation solver's modified-Newton
	// strategy — and bitwise identical to the historical cached-closure form.
	nopt := sp.opt.Newton
	nopt.MaxIter = 3 * sp.opt.Newton.MaxIter
	nopt.JacobianReuse = true
	nopt.ReuseContraction = math.Inf(1)
	nopt.Work = sp.nws
	resN, err := newton.Solve(newton.Problem{N: total, Eval: eval, Jacobian: jac}, y, nopt)
	if err != nil {
		return resN.Iterations, err
	}
	omega := sp.unpackY(y, cNew)
	if omega <= 0 {
		return resN.Iterations, solverr.New(solverr.KindStagnation, "core.spectral",
			"spectral local frequency went non-positive (ω=%g)", omega)
	}
	*omegaNew = omega
	return resN.Iterations, nil
}

func cAbs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }
