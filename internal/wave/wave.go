// Package wave provides waveform post-processing used by the experiment
// harnesses: linear interpolation, zero-crossing detection,
// instantaneous-frequency estimation, and the unwrapped-phase error metric
// that quantifies Figure 12's "phase error builds up in transient
// simulation" claim.
package wave

import (
	"fmt"
	"math"
	"sort"
)

// Series is a sampled waveform: strictly increasing times with values.
type Series struct {
	T, Y []float64
}

// NewSeries validates and wraps the given samples.
func NewSeries(t, y []float64) (*Series, error) {
	if len(t) != len(y) {
		return nil, fmt.Errorf("wave: len(t)=%d len(y)=%d", len(t), len(y))
	}
	for i := 1; i < len(t); i++ {
		if t[i] <= t[i-1] {
			return nil, fmt.Errorf("wave: times not strictly increasing at index %d", i)
		}
	}
	return &Series{T: t, Y: y}, nil
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.T) }

// AtLinear evaluates the series at x by linear interpolation, clamping
// outside the sample range.
func (s *Series) AtLinear(x float64) float64 {
	n := len(s.T)
	if n == 0 {
		return 0
	}
	if x <= s.T[0] {
		return s.Y[0]
	}
	if x >= s.T[n-1] {
		return s.Y[n-1]
	}
	i := sort.SearchFloat64s(s.T, x)
	// s.T[i-1] < x <= s.T[i]
	w := (x - s.T[i-1]) / (s.T[i] - s.T[i-1])
	return (1-w)*s.Y[i-1] + w*s.Y[i]
}

// ZeroCrossings returns the times of rising zero crossings (y goes from
// negative/zero to positive), located by linear interpolation.
func ZeroCrossings(t, y []float64) []float64 {
	var out []float64
	for i := 1; i < len(y); i++ {
		if y[i-1] <= 0 && y[i] > 0 {
			if y[i] == y[i-1] {
				continue
			}
			w := -y[i-1] / (y[i] - y[i-1])
			out = append(out, t[i-1]+w*(t[i]-t[i-1]))
		}
	}
	return out
}

// InstFrequency estimates the instantaneous frequency of an oscillatory
// waveform from consecutive rising zero crossings: sample k is placed at the
// midpoint of crossings k and k+1 with frequency 1/Δ. Returns a Series;
// fewer than two crossings give an empty series.
func InstFrequency(t, y []float64) *Series {
	z := ZeroCrossings(t, y)
	if len(z) < 2 {
		return &Series{}
	}
	ft := make([]float64, len(z)-1)
	fv := make([]float64, len(z)-1)
	for k := 0; k+1 < len(z); k++ {
		ft[k] = (z[k] + z[k+1]) / 2
		fv[k] = 1 / (z[k+1] - z[k])
	}
	return &Series{T: ft, Y: fv}
}

// UnwrappedPhase returns the continuous oscillation phase (in cycles) of a
// waveform at each rising zero crossing: crossing k has phase k. Evaluating
// two waveforms' phase at common times and differencing measures accumulated
// phase error — the Figure 12 metric.
func UnwrappedPhase(t, y []float64) *Series {
	z := ZeroCrossings(t, y)
	ph := make([]float64, len(z))
	for i := range ph {
		ph[i] = float64(i)
	}
	return &Series{T: z, Y: ph}
}

// PhaseErrorAt returns |phase_a(t) - phase_b(t)| in cycles at time x, where
// each phase is the linear interpolation of the waveform's unwrapped
// zero-crossing phase. The caller must ensure both waveforms start in phase
// (e.g. both runs launched from the same initial state).
func PhaseErrorAt(a, b *Series, x float64) float64 {
	return math.Abs(a.AtLinear(x) - b.AtLinear(x))
}

// RMS returns the root-mean-square of y.
func RMS(y []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range y {
		s += v * v
	}
	return math.Sqrt(s / float64(len(y)))
}

// RMSDiff returns the RMS of (a-b); the slices must have equal length.
func RMSDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("wave: RMSDiff length mismatch")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	if len(a) == 0 {
		return 0
	}
	return math.Sqrt(s / float64(len(a)))
}

// PeakToPeak returns max(y) - min(y).
func PeakToPeak(y []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	min, max := y[0], y[0]
	for _, v := range y {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max - min
}

// Envelope returns the per-cycle amplitude of an oscillation: between each
// pair of consecutive rising zero crossings it reports the max |y|, placed
// at the cycle midpoint.
func Envelope(t, y []float64) *Series {
	z := ZeroCrossings(t, y)
	if len(z) < 2 {
		return &Series{}
	}
	var et, ev []float64
	j := 0
	for k := 0; k+1 < len(z); k++ {
		peak := 0.0
		for ; j < len(t) && t[j] <= z[k+1]; j++ {
			if t[j] >= z[k] {
				if a := math.Abs(y[j]); a > peak {
					peak = a
				}
			}
		}
		if j > 0 {
			j--
		}
		et = append(et, (z[k]+z[k+1])/2)
		ev = append(ev, peak)
	}
	return &Series{T: et, Y: ev}
}
