// Command speedup reproduces the paper's headline §5 result: on the
// air-damped VCO driven for 3 ms (≈ 2–3 thousand oscillation cycles),
// transient simulation needs on the order of 1000 points per nominal cycle
// to match the WaMPDE's phase accuracy, giving the WaMPDE a cost advantage
// of roughly two orders of magnitude in computed time points.
//
// The table reports, per method: time points computed, wall-clock time, and
// accumulated phase error versus the 1000-points-per-cycle reference.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	wampde "repro"
	"repro/internal/textplot"
)

func main() {
	span := flag.Float64("span", 3e-3, "simulated span in seconds")
	steps := flag.Int("steps", 0, "WaMPDE t2 steps (default 600)")
	chord := flag.Bool("chord", true, "carry the chord-Newton factorization across t2 steps")
	matfree := flag.Bool("matfree", false, "apply the bordered Jacobian matrix-free (spectral operator, no assembly)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "speedup:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "speedup:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "speedup:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "speedup:", err)
			}
		}()
	}

	run, rows, err := wampde.SpeedupReport(wampde.VCORunConfig{T2End: *span, Steps: *steps,
		ChordNewton: *chord, MatrixFree: *matfree}, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "speedup:", err)
		os.Exit(1)
	}
	min, max := run.FrequencyRange()
	fmt.Printf("air-damped VCO, span %.3g s, local frequency %.2f–%.2f MHz\n\n", *span, min/1e6, max/1e6)

	table := [][]string{}
	for _, r := range rows {
		table = append(table, []string{
			r.Method,
			fmt.Sprintf("%d", r.TimePoints),
			r.WallTime.Round(1e6 * 1).String(),
			fmt.Sprintf("%.4f", r.PhaseErrEnd),
		})
	}
	fmt.Print(textplot.Table(
		[]string{"method", "time points", "wall clock", "phase err (cycles, vs reference)"},
		table))

	wampdePts := rows[0].TimePoints
	refPts := rows[len(rows)-1].TimePoints
	fmt.Printf("\ncost ratio (reference transient / WaMPDE): %.0fx in time points, %.1fx in wall clock\n",
		float64(refPts)/float64(wampdePts),
		float64(rows[len(rows)-1].WallTime)/float64(run.WallTime))
	fmt.Println("(the paper reports \"a speed disadvantage of two orders of magnitude\" for the")
	fmt.Println(" 1000-points-per-cycle transient on its 1999 implementation)")
}
