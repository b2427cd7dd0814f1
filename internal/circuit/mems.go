package circuit

// MEMSVaractor models the paper's "novel MEMS varactor" (§5): a movable
// parallel plate whose separation — and hence capacitance — is adjusted by
// a separate control voltage. The paper gives no device equations, so we
// substitute a standard electrostatically actuated plate (see DESIGN.md):
//
//	gap g(u)       = D0 + u                      (u ≥ −D0, u=0 at rest)
//	capacitance    C(u) = C0·D0/(D0 + u)          (gap-inverse law)
//	plate dynamics M·u″ + B·u′ + K·u = Fctl + Fsig
//	control force  Fctl = Gamma·Vc(t)²            (comb-drive-like actuator)
//	back-action    Fsig = −½·v²·C0·D0/(D0+u)²     (plate attraction from the
//	                                               signal voltage v)
//
// The damping B is the paper's experimental knob: small for the
// near-vacuum cavity of Figures 7–9, large (overdamped) for the air-filled
// cavity of Figures 10–12.
//
// The device owns two extra state variables (plate displacement u, plate
// velocity w) and one input (the control voltage waveform).
type MEMSVaractor struct {
	twoNode
	C0    float64 // capacitance at rest (u = 0)
	D0    float64 // rest gap (sets the displacement scale)
	M     float64 // plate mass
	B     float64 // damping coefficient
	K     float64 // spring constant
	Gamma float64 // control-force coefficient: F = Gamma·Vc²
	Vc    Waveform

	iu, iw int // state indices of displacement and velocity
	uIdx   int // input index of the control voltage
}

// NewMEMSVaractor creates the varactor between electrical nodes n1 and n2.
func NewMEMSVaractor(name, n1, n2 string, c0, d0, m, b, k, gamma float64, vc Waveform) *MEMSVaractor {
	return &MEMSVaractor{
		twoNode: twoNode{name, n1, n2, 0, 0},
		C0:      c0, D0: d0, M: m, B: b, K: k, Gamma: gamma, Vc: vc,
	}
}

// NumExtra implements Device: displacement and velocity.
func (d *MEMSVaractor) NumExtra() int { return 2 }

// NumInputs implements Device: the control voltage.
func (d *MEMSVaractor) NumInputs() int { return 1 }

// Bind implements Device.
func (d *MEMSVaractor) Bind(nodes []int, extraBase, inputBase int) {
	d.ia, d.ib = nodes[0], nodes[1]
	d.iu = extraBase
	d.iw = extraBase + 1
	d.uIdx = inputBase
}

// Capacitance returns C(u).
func (d *MEMSVaractor) Capacitance(u float64) float64 {
	return d.C0 * d.D0 / (d.D0 + u)
}

// dCdu returns dC/du.
func (d *MEMSVaractor) dCdu(u float64) float64 {
	g := d.D0 + u
	return -d.C0 * d.D0 / (g * g)
}

// StampQ implements Device: varactor charge and the mechanical "charges"
// (u itself and the momentum M·w).
func (d *MEMSVaractor) StampQ(x, q []float64) {
	v := vAt(x, d.ia) - vAt(x, d.ib)
	u := x[d.iu]
	qc := d.Capacitance(u) * v
	accum(q, d.ia, qc)
	accum(q, d.ib, -qc)
	q[d.iu] += u
	q[d.iw] += d.M * x[d.iw]
}

// StampF implements Device: the mechanical equations
//
//	u′ − w = 0
//	M·w′ + B·w + K·u − Gamma·Vc² − Fsig = 0.
func (d *MEMSVaractor) StampF(x, u, f []float64) {
	v := vAt(x, d.ia) - vAt(x, d.ib)
	uu := x[d.iu]
	w := x[d.iw]
	vc := u[d.uIdx]
	g := d.D0 + uu
	fsig := -0.5 * v * v * d.C0 * d.D0 / (g * g)
	f[d.iu] += -w
	f[d.iw] += d.B*w + d.K*uu - d.Gamma*vc*vc - fsig
}

// StampJQ implements Device.
func (d *MEMSVaractor) StampJQ(x []float64, add Stamper) {
	v := vAt(x, d.ia) - vAt(x, d.ib)
	uu := x[d.iu]
	c := d.Capacitance(uu)
	dc := d.dCdu(uu)
	add(d.ia, d.ia, c)
	add(d.ia, d.ib, -c)
	add(d.ib, d.ia, -c)
	add(d.ib, d.ib, c)
	add(d.ia, d.iu, dc*v)
	add(d.ib, d.iu, -dc*v)
	add(d.iu, d.iu, 1)
	add(d.iw, d.iw, d.M)
}

// StampJF implements Device.
func (d *MEMSVaractor) StampJF(x, u []float64, add Stamper) {
	v := vAt(x, d.ia) - vAt(x, d.ib)
	uu := x[d.iu]
	g := d.D0 + uu
	// fsig = -½ v² C0 D0 g^{-2}; we add −fsig to row iw.
	// ∂(−fsig)/∂v = v·C0·D0/g²; ∂(−fsig)/∂u = −v²·C0·D0/g³.
	dFdv := v * d.C0 * d.D0 / (g * g)
	dFdu := -v * v * d.C0 * d.D0 / (g * g * g)
	add(d.iu, d.iw, -1)
	add(d.iw, d.iw, d.B)
	add(d.iw, d.iu, d.K+dFdu)
	add(d.iw, d.ia, dFdv)
	add(d.iw, d.ib, -dFdv)
}

// Inputs implements Device.
func (d *MEMSVaractor) Inputs(t float64, u []float64) { u[d.uIdx] = d.Vc(t) }
