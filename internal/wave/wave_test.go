package wave

import (
	"math"
	"testing"
)

func sine(f float64, n int, t1 float64) ([]float64, []float64) {
	t := make([]float64, n)
	y := make([]float64, n)
	for i := range t {
		t[i] = t1 * float64(i) / float64(n-1)
		y[i] = math.Sin(2 * math.Pi * f * t[i])
	}
	return t, y
}

func TestNewSeriesValidation(t *testing.T) {
	if _, err := NewSeries([]float64{0, 1}, []float64{1}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := NewSeries([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Fatal("non-increasing times should fail")
	}
	s, err := NewSeries([]float64{0, 1}, []float64{1, 2})
	if err != nil || s.Len() != 2 {
		t.Fatal("valid series rejected")
	}
}

func TestAtLinear(t *testing.T) {
	s := &Series{T: []float64{0, 1, 3}, Y: []float64{0, 10, 30}}
	cases := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {2, 20}, {3, 30}, {5, 30},
	}
	for _, c := range cases {
		if got := s.AtLinear(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("AtLinear(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestZeroCrossingsOfSine(t *testing.T) {
	// Rising crossings of sin(2π·5·t) on [0,1): at t = 0, 0.2, 0.4, 0.6, 0.8
	// (the one at 0 needs y[i-1] <= 0 with a sample hitting it; we offset
	// slightly so the first crossing is interior).
	ts, ys := sine(5, 2000, 0.999)
	z := ZeroCrossings(ts, ys)
	if len(z) < 4 {
		t.Fatalf("found %d crossings", len(z))
	}
	for i, want := range []float64{0.2, 0.4, 0.6, 0.8} {
		// First detected crossing may be t=0 depending on sampling; search.
		found := false
		for _, zz := range z {
			if math.Abs(zz-want) < 1e-3 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("crossing %d near %v not found in %v", i, want, z[:4])
		}
	}
}

func TestInstFrequencyOfSine(t *testing.T) {
	f0 := 7.0
	ts, ys := sine(f0, 4000, 2)
	inst := InstFrequency(ts, ys)
	if inst.Len() < 10 {
		t.Fatalf("too few frequency samples: %d", inst.Len())
	}
	for i := range inst.T {
		if math.Abs(inst.Y[i]-f0) > 0.01*f0 {
			t.Fatalf("inst freq %v at %v, want %v", inst.Y[i], inst.T[i], f0)
		}
	}
}

func TestInstFrequencyChirp(t *testing.T) {
	// Linear chirp f(t) = 10 + 5t: phase = 2π(10t + 2.5t²).
	n := 20000
	ts := make([]float64, n)
	ys := make([]float64, n)
	for i := range ts {
		ts[i] = 2 * float64(i) / float64(n-1)
		ys[i] = math.Sin(2 * math.Pi * (10*ts[i] + 2.5*ts[i]*ts[i]))
	}
	inst := InstFrequency(ts, ys)
	for i := range inst.T {
		want := 10 + 5*inst.T[i]
		if math.Abs(inst.Y[i]-want) > 0.05*want {
			t.Fatalf("chirp freq %v at t=%v, want %v", inst.Y[i], inst.T[i], want)
		}
	}
}

func TestInstFrequencyTooFewCrossings(t *testing.T) {
	s := InstFrequency([]float64{0, 1}, []float64{1, 2})
	if s.Len() != 0 {
		t.Fatal("expected empty series")
	}
}

func TestUnwrappedPhaseGrowsByOnePerCycle(t *testing.T) {
	ts, ys := sine(3, 3000, 2)
	ph := UnwrappedPhase(ts, ys)
	if ph.Len() < 5 {
		t.Fatalf("crossings: %d", ph.Len())
	}
	for i := 1; i < ph.Len(); i++ {
		if ph.Y[i]-ph.Y[i-1] != 1 {
			t.Fatal("phase should increase by exactly 1 per crossing")
		}
		if math.Abs((ph.T[i]-ph.T[i-1])-1.0/3) > 1e-3 {
			t.Fatalf("crossing spacing %v, want 1/3", ph.T[i]-ph.T[i-1])
		}
	}
}

func TestPhaseErrorAtDetectsShift(t *testing.T) {
	// Two 5 Hz sines, second delayed by 1/20 s = quarter cycle.
	ts, ya := sine(5, 5000, 4)
	yb := make([]float64, len(ts))
	for i := range ts {
		yb[i] = math.Sin(2 * math.Pi * 5 * (ts[i] - 0.05))
	}
	pa := UnwrappedPhase(ts, ya)
	pb := UnwrappedPhase(ts, yb)
	got := PhaseErrorAt(pa, pb, 2.0)
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("phase error = %v cycles, want 0.25", got)
	}
}

func TestRMSAndPeakToPeak(t *testing.T) {
	_, ys := sine(2, 10000, 3)
	if r := RMS(ys); math.Abs(r-1/math.Sqrt2) > 1e-3 {
		t.Fatalf("RMS of sine = %v, want %v", r, 1/math.Sqrt2)
	}
	if p := PeakToPeak(ys); math.Abs(p-2) > 1e-3 {
		t.Fatalf("PeakToPeak = %v, want 2", p)
	}
	if RMS(nil) != 0 || PeakToPeak(nil) != 0 {
		t.Fatal("empty inputs should give 0")
	}
}

func TestRMSDiff(t *testing.T) {
	if d := RMSDiff([]float64{1, 2}, []float64{1, 2}); d != 0 {
		t.Fatalf("identical RMSDiff = %v", d)
	}
	if d := RMSDiff([]float64{1}, []float64{3}); d != 2 {
		t.Fatalf("RMSDiff = %v, want 2", d)
	}
}

func TestEnvelopeOfDecayingSine(t *testing.T) {
	n := 20000
	ts := make([]float64, n)
	ys := make([]float64, n)
	for i := range ts {
		ts[i] = 5 * float64(i) / float64(n-1)
		ys[i] = math.Exp(-0.3*ts[i]) * math.Sin(2*math.Pi*4*ts[i])
	}
	env := Envelope(ts, ys)
	if env.Len() < 10 {
		t.Fatalf("envelope points: %d", env.Len())
	}
	for i := range env.T {
		want := math.Exp(-0.3 * env.T[i])
		if math.Abs(env.Y[i]-want) > 0.05*want {
			t.Fatalf("envelope %v at t=%v, want %v", env.Y[i], env.T[i], want)
		}
	}
}
