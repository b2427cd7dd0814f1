package netlist

import (
	"fmt"
	"strings"
)

// Switch-mode power converter generators: parameterized buck and boost
// netlists for the serving catalog (`buck-converter?duty=D&fsw=F`),
// registered exactly like `ring-vco?stages=N`. Component values scale with
// the switching frequency so every (duty, fsw) point keeps the same
// fast/slow separation: L = C = convLCScale/fsw gives an output-filter
// corner at fsw/(2π·convLCScale) ≈ fsw/63 — the switching ripple is the
// fast t1 scale, the LC start-up transient the slow t2 envelope, mirroring
// the carrier/modulation split of the VCO circuits.
const (
	convLCScale = 10.0 // L = C = convLCScale/fsw (H, F)
	convLoadR   = 5.0  // output load, Ω
	convLESR    = 0.01 // inductor series resistance, Ω
	convDiodeVf = 0.4  // forward drop of the freewheel/boost diode, V
	// convDiodeGon is the diode on-conductance (50 mΩ, a realistic
	// Schottky). It is deliberately softer than the switch's DefaultGon:
	// every harmonic of the switch-node waveform the truncated t1 basis
	// cannot carry oscillates across the diode corner and rectifies into a
	// spurious mean diode current proportional to Gon — at 10 mΩ the
	// resulting output-mean bias is ~4% of the rail at the start-up ring
	// peak, at 50 mΩ it drops under 1% (measured in the ripple agreement
	// gate).
	convDiodeGon = 20.0
	// convEdge is the PWM edge width as a fraction of the switching period.
	// It sets the harmonic content the t1 trig basis must carry: a w-wide
	// trapezoid edge rolls off past harmonic ~1/(2w). 5% keeps the spectrum
	// inside what the catalog N1=33 basis (16 harmonics) resolves — at 2%
	// the unresolved edge harmonics Gibbs-ring on the switch node and
	// rectify through the convex diode corner into a visible output-mean
	// bias (the measured pressure behind the adaptive-basis roadmap item).
	convEdge = 0.05
	// convSnubR / convSnubCScale form the RC snubber from the switch node
	// to ground (C_snub = convSnubCScale/fsw). Without it the switch node
	// floats on the off-conductances whenever the inductor current reverses
	// during the start-up ring (discontinuous conduction): v(sw) plateaus
	// at ~2x the rail and the undamped L·C_node resonance lands near fsw —
	// waveform content a truncated trig basis cannot carry. The snubber is
	// the standard hardware answer to the same ringing; R = sqrt(L/C_snub)
	// damps the resonance critically, and the R·C corner sits at ~1.6·fsw
	// so switching edges pass through it. Both values are fsw-scaled, so
	// the waveform shape is identical across the catalog's fsw range.
	convSnubR      = 100.0
	convSnubCScale = convLCScale / 1e4 // C_snub = L/convSnubR² scaled by fsw
	// BuckVin and BoostVin are the converter input rails.
	BuckVin  = 12.0
	BoostVin = 5.0
)

// Converter parameter bounds. Duty extremes are excluded: below DutyMin
// the pulse degenerates into its own edges (the PWM clamps at the edge
// width), and above DutyMax the boost output Vin/(1−D) runs away.
const (
	ConverterDutyMin = 0.05
	ConverterDutyMax = 0.9
	ConverterFswMin  = 1e3
	ConverterFswMax  = 10e6
)

// BuckN1 and BoostN1 are the catalog t1 resolutions for the converter
// ripple envelope, set by measurement against brute-force transients over
// the start-up horizon (ripple agreement gate, internal/mpde): the buck's
// cycle-mean error is 0.18 V (1.5% of the 12 V rail) at N1=33 and does not
// improve at 65, while the boost needs N1=65 — at 33 its error is 0.81 V
// (16% of the 5 V rail), collapsing to 0.10 V (1.9%) at 65. The boost's
// switch node carries the full output swing (Vin/(1−D) + drop) with
// harmonic content the smaller basis cannot hold — the measured pressure
// behind the adaptive-resolution roadmap item.
const (
	BuckN1  = 33
	BoostN1 = 65
)

// ConverterStartupT2 is the slow-time horizon that covers the start-up
// envelope: with L = C = convLCScale/fsw the output rings at ≈ fsw/63 with
// time constant 2·R·C, so 200 switching periods see it settle.
func ConverterStartupT2(fsw float64) float64 { return 200 / fsw }

// BuckNominalOut is the ideal steady-state buck output duty·Vin (drops
// ignored), the sanity anchor for goldens.
func BuckNominalOut(duty float64) float64 { return duty * BuckVin }

// BoostNominalOut is the ideal steady-state boost output Vin/(1−duty).
func BoostNominalOut(duty float64) float64 { return BoostVin / (1 - duty) }

func checkConverterParams(kind string, duty, fsw float64) error {
	if !(duty >= ConverterDutyMin && duty <= ConverterDutyMax) {
		return fmt.Errorf("netlist: %s duty must be in [%g, %g], got %g",
			kind, ConverterDutyMin, ConverterDutyMax, duty)
	}
	if !(fsw >= ConverterFswMin && fsw <= ConverterFswMax) {
		return fmt.Errorf("netlist: %s fsw must be in [%g, %g] Hz, got %g",
			kind, ConverterFswMin, ConverterFswMax, fsw)
	}
	return nil
}

// BuckConverter generates a buck (step-down) converter netlist: Vin through
// a PWM'd high-side switch into an LC output filter with a resistive load,
// freewheel diode to ground. Steady output ≈ duty·BuckVin; start-up from
// zero state is the slow envelope.
func BuckConverter(duty, fsw float64) (string, error) {
	if err := checkConverterParams("buck-converter", duty, fsw); err != nil {
		return "", err
	}
	l := convLCScale / fsw
	c := convLCScale / fsw
	var sb strings.Builder
	fmt.Fprintf(&sb, "* buck-converter duty=%.12g fsw=%.12g Hz vout~%.6g V\n",
		duty, fsw, BuckNominalOut(duty))
	fmt.Fprintf(&sb, "Vin vin 0 DC(%.12g)\n", BuckVin)
	fmt.Fprintf(&sb, "Sw vin sw gon=%.12g goff=%.12g ctl=PWM(DC(%.12g) %.12g %.12g)\n",
		DefaultGon, DefaultGoff, duty, fsw, convEdge)
	fmt.Fprintf(&sb, "Dfw 0 sw mode=pwl vf=%.12g gon=%.12g goff=%.12g\n",
		convDiodeVf, convDiodeGon, DefaultGoff)
	fmt.Fprintf(&sb, "Rsn sw snub %.12g\n", convSnubR)
	fmt.Fprintf(&sb, "Csn snub 0 %.12g\n", convSnubCScale/fsw)
	fmt.Fprintf(&sb, "Lf sw out %.12g esr=%.12g\n", l, convLESR)
	fmt.Fprintf(&sb, "Cf out 0 %.12g\n", c)
	fmt.Fprintf(&sb, "Rl out 0 %.12g\n", convLoadR)
	return sb.String(), nil
}

// BoostConverter generates a boost (step-up) converter netlist: Vin through
// the inductor into a PWM'd low-side switch; the diode feeds the output
// capacitor and load. Steady output ≈ BoostVin/(1−duty).
func BoostConverter(duty, fsw float64) (string, error) {
	if err := checkConverterParams("boost-converter", duty, fsw); err != nil {
		return "", err
	}
	l := convLCScale / fsw
	c := convLCScale / fsw
	var sb strings.Builder
	fmt.Fprintf(&sb, "* boost-converter duty=%.12g fsw=%.12g Hz vout~%.6g V\n",
		duty, fsw, BoostNominalOut(duty))
	fmt.Fprintf(&sb, "Vin vin 0 DC(%.12g)\n", BoostVin)
	fmt.Fprintf(&sb, "Lf vin sw %.12g esr=%.12g\n", l, convLESR)
	fmt.Fprintf(&sb, "Sw sw 0 gon=%.12g goff=%.12g ctl=PWM(DC(%.12g) %.12g %.12g)\n",
		DefaultGon, DefaultGoff, duty, fsw, convEdge)
	fmt.Fprintf(&sb, "Db sw out mode=pwl vf=%.12g gon=%.12g goff=%.12g\n",
		convDiodeVf, convDiodeGon, DefaultGoff)
	fmt.Fprintf(&sb, "Rsn sw snub %.12g\n", convSnubR)
	fmt.Fprintf(&sb, "Csn snub 0 %.12g\n", convSnubCScale/fsw)
	fmt.Fprintf(&sb, "Cf out 0 %.12g\n", c)
	fmt.Fprintf(&sb, "Rl out 0 %.12g\n", convLoadR)
	return sb.String(), nil
}
