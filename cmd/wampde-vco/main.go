// Command wampde-vco regenerates the paper's §5 VCO experiments:
//
//	default (vacuum MEMS cavity, control period 30× the nominal cycle):
//	  Fig 7: local frequency ω(t2) — swings by a factor of ≈3
//	  Fig 8: bivariate capacitor voltage — amplitude/shape vary with control
//	  Fig 9: WaMPDE reconstruction vs transient simulation — they overlay
//
//	-air (air-filled cavity, control period 1 ms ≈ 1000× the cycle):
//	  Fig 10: local frequency — settling + smaller swing
//	  Fig 11: bivariate voltage — amplitude nearly constant
//	  Fig 12: a few cycles near 0.3 ms: transient at 50/100 pts per cycle
//	          accumulates phase error, the WaMPDE does not
//
// Use -fig to select one figure, -csv <dir> to write the data files.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	wampde "repro"
	"repro/internal/core"
	"repro/internal/solverr"
	"repro/internal/textplot"
)

// die reports err and exits with its failure kind's status code (see
// solverr.ExitCode) so sweep harnesses can dispatch without parsing stderr.
func die(err error) {
	fmt.Fprintln(os.Stderr, "wampde-vco:", err)
	os.Exit(solverr.ExitCode(err))
}

func main() {
	air := flag.Bool("air", false, "air-damped configuration (Figures 10-12)")
	qp := flag.Bool("qp", false, "also solve the §4.1 quasiperiodic (periodic-BC) problem and compare")
	fig := flag.Int("fig", 0, "specific figure (7-9 vacuum, 10-12 air); 0 = all for the configuration")
	csvDir := flag.String("csv", "", "directory to write CSV data files into")
	steps := flag.Int("steps", 0, "t2 steps (default 400 vacuum / 600 air)")
	chord := flag.Bool("chord", true, "carry the chord-Newton factorization across t2 steps")
	matfree := flag.Bool("matfree", false, "apply the bordered Jacobian matrix-free (spectral operator, no assembly); implies an iterative solve")
	recycle := flag.Bool("recycle", true, "carry the GCRO-DR deflation space across GMRES solves (with -matfree)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the envelope run (0 = none); on expiry the partial result computed so far is still reported")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			die(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wampde-vco:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "wampde-vco:", err)
			}
		}()
	}

	cfg := wampde.VCORunConfig{Air: *air, Steps: *steps, ChordNewton: *chord,
		MatrixFree: *matfree, RecycleKrylov: *recycle}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		cfg.Ctx = ctx
	}
	run, err := wampde.RunPaperVCO(cfg)
	if err != nil {
		if run == nil {
			die(err)
		}
		// Canceled mid-run: report what was computed before the deadline;
		// main still exits with the failure kind's status at the end.
		fmt.Fprintln(os.Stderr, "wampde-vco: partial run:", err)
	}
	if rescues := run.Result.FullNewtonRescues + run.Result.DampedNewtonRescues +
		run.Result.ContinuationRescues + run.Result.LinearGMRESRescues +
		run.Result.LinearLURescues + run.Result.StepHalvings; rescues > 0 {
		fmt.Printf("solve supervision: %d full-Newton, %d damped, %d continuation rescues; %d GMRES->GMRES, %d GMRES->sparse LU linear rescues; %d step halvings\n",
			run.Result.FullNewtonRescues, run.Result.DampedNewtonRescues, run.Result.ContinuationRescues,
			run.Result.LinearGMRESRescues, run.Result.LinearLURescues, run.Result.StepHalvings)
	}
	fmt.Printf("WaMPDE envelope: %d t2 steps, %d Newton iterations, %v\n",
		len(run.Result.T2), run.Result.NewtonIterTotal, run.WallTime)
	fmt.Printf("Jacobian factorizations: %d (%d chord reuses)\n",
		run.Result.JacobianEvals, run.Result.JacobianReuses)
	if *matfree {
		fmt.Printf("GMRES: %d solves, %d matvecs; recycler: %d hits, %d harvests, %d invalidations\n",
			run.Result.GMRESSolves, run.Result.GMRESMatVecs,
			run.Result.RecycleHits, run.Result.RecycleHarvests, run.Result.RecycleInvalidations)
	}
	fmt.Printf("initial local frequency: %.3f MHz (paper: ≈0.75 MHz)\n\n", run.Omega0/1e6)

	if *qp && !*air {
		quasiperiodicCompare(run, *csvDir)
	}
	show := func(n int) bool { return *fig == 0 || *fig == n }
	if !*air {
		if show(7) {
			frequencyFigure(run, 7, *csvDir)
		}
		if show(8) {
			bivariateFigure(run, 8, *csvDir)
		}
		if show(9) {
			overlayFigure(run, *csvDir)
		}
	} else {
		if show(10) {
			frequencyFigure(run, 10, *csvDir)
		}
		if show(11) {
			bivariateFigure(run, 11, *csvDir)
		}
		if show(12) {
			phaseErrorFigure(run, *csvDir)
		}
	}
	if err != nil {
		// Partial (e.g. deadline-canceled) run: everything computed was
		// rendered above, but the exit status still reports the failure kind.
		os.Exit(solverr.ExitCode(err))
	}
}

// quasiperiodicCompare solves the §4.1 periodic-boundary problem over one
// control period and prints its ω(t2) against the envelope's settled tail.
func quasiperiodicCompare(run *wampde.VCORun, dir string) {
	ctlPeriod := 30.0 / wampde.VCONominalFreq
	// The envelope run spans 1.5 control periods by default; extend it so a
	// full settled period is available for the guess.
	ic := core.ResampleBivariate(run.IC, run.Result.N1, run.VCO.Dim(), 17)
	env, err := wampde.RunEnvelope(run.VCO, ic, run.Omega0, 3*ctlPeriod, wampde.EnvelopeOptions{
		N1: 17, H2: ctlPeriod / 200, Trap: true,
	})
	if err != nil {
		die(fmt.Errorf("qp envelope: %w", err))
	}
	guess, err := wampde.QPGuessFromEnvelope(env, ctlPeriod, 17, 15)
	if err != nil {
		die(fmt.Errorf("qp guess: %w", err))
	}
	qp, err := wampde.RunQuasiperiodic(run.VCO, ctlPeriod, guess, wampde.QPOptions{N1: 17, N2: 15})
	if err != nil {
		die(fmt.Errorf("qp solve: %w", err))
	}
	fmt.Println("§4.1 quasiperiodic solve (one control period, periodic BCs):")
	fmt.Printf("  mean local frequency ω0 = %.4f MHz\n", qp.OmegaMean()/1e6)
	fmt.Println("  t2/T2   ω_QP (MHz)   ω_envelope tail (MHz)")
	var t2c, wq, wegrid []float64
	for j2 := 0; j2 < 15; j2++ {
		tt := 2*ctlPeriod + ctlPeriod*float64(j2)/15
		we := env.OmegaAt(tt)
		fmt.Printf("  %5.2f   %9.4f   %9.4f\n", float64(j2)/15, qp.Omega[j2]/1e6, we/1e6)
		t2c = append(t2c, float64(j2)/15)
		wq = append(wq, qp.Omega[j2])
		wegrid = append(wegrid, we)
	}
	fmt.Println()
	writeCSV(dir, "qp_frequency.csv", []string{"t2_frac", "freq_qp", "freq_envelope"}, t2c, wq, wegrid)
}

func writeCSV(dir, name string, headers []string, cols ...[]float64) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "wampde-vco:", err)
		return
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fmt.Fprintln(os.Stderr, "wampde-vco:", err)
		return
	}
	defer f.Close()
	if err := textplot.WriteCSV(f, headers, cols...); err != nil {
		fmt.Fprintln(os.Stderr, "wampde-vco:", err)
	}
}

func frequencyFigure(run *wampde.VCORun, figNo int, dir string) {
	res := run.Result
	freqMHz := make([]float64, len(res.Omega))
	for i, w := range res.Omega {
		freqMHz[i] = w / 1e6
	}
	min, max := run.FrequencyRange()
	title := fmt.Sprintf("Figure %d: local frequency ω(t2); range %.2f–%.2f MHz (×%.2f)",
		figNo, min/1e6, max/1e6, max/min)
	p := textplot.NewPlot(title, 72, 18)
	p.XLabel, p.YLabel = "t2 (s)", "f (MHz)"
	p.Add(res.T2, freqMHz, '*')
	fmt.Print(p.Render())
	fmt.Println()
	writeCSV(dir, fmt.Sprintf("fig%02d_frequency.csv", figNo), []string{"t2", "freq_hz"}, res.T2, res.Omega)
}

func bivariateFigure(run *wampde.VCORun, figNo int, dir string) {
	grid := run.BivariateGrid(40)
	fmt.Printf("Figure %d: bivariate capacitor voltage x̂(t1,t2)\n", figNo)
	fmt.Print(textplot.Heatmap("   rows: slow time t2, cols: warped time t1 (one cycle)", grid))
	// Amplitude variation along t2 — the paper's Figure 8 vs 11 contrast.
	minAmp, maxAmp := 1e30, 0.0
	for _, row := range grid {
		lo, hi := row[0], row[0]
		for _, v := range row {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		amp := (hi - lo) / 2
		if amp < minAmp {
			minAmp = amp
		}
		if amp > maxAmp {
			maxAmp = amp
		}
	}
	fmt.Printf("   oscillation amplitude over the sweep: %.2f–%.2f V (ratio %.2f)\n\n",
		minAmp, maxAmp, maxAmp/minAmp)
	if dir != "" {
		var t1c, t2c, vc []float64
		res := run.Result
		for k, row := range grid {
			for j, v := range row {
				t1c = append(t1c, float64(j)/float64(res.N1))
				t2c = append(t2c, run.Config.T2End*float64(k)/float64(len(grid)-1))
				vc = append(vc, v)
			}
		}
		writeCSV(dir, fmt.Sprintf("fig%02d_bivariate.csv", figNo), []string{"t1", "t2", "v"}, t1c, t2c, vc)
	}
}

func overlayFigure(run *wampde.VCORun, dir string) {
	tr, err := run.RunTransientBaseline(200, 0)
	if err != nil {
		die(fmt.Errorf("transient: %w", err))
	}
	rms := run.WaveformRMSVs(tr, run.Config.T2End)
	pe := run.PhaseErrorVs(tr, 0.9*run.Config.T2End)
	// Render a window dense enough to see the FM undulation density vary.
	t0, t1 := 0.0, run.Config.T2End
	ts, ys := run.Result.Reconstruct(run.VCO.TankNode, t0, t1, 4000)
	yt := make([]float64, len(ts))
	for i, tv := range ts {
		yt[i] = tr.Result.At(tv, run.VCO.TankNode)
	}
	p := textplot.NewPlot(
		fmt.Sprintf("Figure 9: WaMPDE ('*') vs transient ('o'); RMS diff %.3f V, phase err %.4f cycles", rms, pe),
		72, 18)
	p.XLabel, p.YLabel = "t (s)", "v (V)"
	p.Add(ts, yt, 'o')
	p.Add(ts, ys, '*')
	fmt.Print(p.Render())
	fmt.Println()
	writeCSV(dir, "fig09_overlay.csv", []string{"t", "v_wampde", "v_transient"}, ts, ys, yt)
}

func phaseErrorFigure(run *wampde.VCORun, dir string) {
	fmt.Println("Figure 12: transient phase error accumulates; the WaMPDE phase stays pinned")
	ref, err := run.RunTransientBaseline(1000, 0)
	if err != nil {
		die(fmt.Errorf("reference transient: %w", err))
	}
	refPhase := wampde.UnwrappedPhase(ref.Result.T, ref.Result.Component(run.VCO.TankNode))
	measure := []float64{0.3e-3, 1e-3, 2e-3, 2.9e-3}
	rows := [][]string{}
	for _, ppc := range []float64{50, 100} {
		tr, err := run.RunTransientBaseline(ppc, 0)
		if err != nil {
			die(err)
		}
		ph := wampde.UnwrappedPhase(tr.Result.T, tr.Result.Component(run.VCO.TankNode))
		row := []string{fmt.Sprintf("transient %.0f pts/cycle", ppc)}
		for _, tv := range measure {
			row = append(row, fmt.Sprintf("%.3f", wampde.PhaseErrorAt(ph, refPhase, tv)))
		}
		rows = append(rows, row)
	}
	ts, ys := run.Result.Reconstruct(run.VCO.TankNode, 0, run.Config.T2End, run.TimePointCount()*40)
	wp := wampde.UnwrappedPhase(ts, ys)
	row := []string{"WaMPDE"}
	for _, tv := range measure {
		row = append(row, fmt.Sprintf("%.3f", wampde.PhaseErrorAt(wp, refPhase, tv)))
	}
	rows = append(rows, row)
	headers := []string{"method"}
	for _, tv := range measure {
		headers = append(headers, fmt.Sprintf("phase err @%.1fms (cycles)", tv*1e3))
	}
	fmt.Print(textplot.Table(headers, rows))
	fmt.Println("\n(the paper: 50 pts/cycle builds up error by 0.3 ms; 100 is better but grows later;\n 1000 pts/cycle is needed to match the WaMPDE — its cost disadvantage is the headline speedup)")

	// A few cycles near 0.3 ms, as in the paper's Figure 12 inset.
	t0, t1 := 3.0e-4, 3.06e-4
	tsw, ysw := run.Result.Reconstruct(run.VCO.TankNode, t0, t1, 600)
	tr50, err := run.RunTransientBaseline(50, t1*1.02)
	if err != nil {
		die(err)
	}
	y50 := make([]float64, len(tsw))
	yrf := make([]float64, len(tsw))
	for i, tv := range tsw {
		y50[i] = tr50.Result.At(tv, run.VCO.TankNode)
		yrf[i] = ref.Result.At(tv, run.VCO.TankNode)
	}
	p := textplot.NewPlot("   cycles near 0.3 ms: WaMPDE '*', reference 'o', transient@50 'x' (shifted)", 72, 16)
	p.Add(tsw, yrf, 'o')
	p.Add(tsw, y50, 'x')
	p.Add(tsw, ysw, '*')
	fmt.Print(p.Render())
	writeCSV(dir, "fig12_cycles.csv", []string{"t", "v_wampde", "v_ref1000", "v_tr50"}, tsw, ysw, yrf, y50)
}
