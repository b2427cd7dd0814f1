// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON report on stdout, so CI tiers and scripts can diff
// benchmark baselines (see `ci.sh bench`, which snapshots the hot-loop
// numbers into BENCH_pr3.json) without scraping the text format themselves.
//
// With -check FILE it compares the run on stdin against a committed baseline
// instead of emitting JSON: a benchmark missing from the run or an
// allocs/op count above the baseline (plus a small slack) fails the check,
// while ns/op drift beyond -tol in either direction only warns — allocation
// counts are deterministic, timings are machine-specific.
//
// Lines that are not benchmark results (the cpu/goos banner, PASS/ok) are
// ignored; the -cpu suffix goos appends to benchmark names is kept, since it
// distinguishes runs at different worker counts.
//
// With -ring-gate it instead reads a ring scaling run from stdin and
// enforces the dense/matrix-free crossover per benchmark family. Any
// benchmark shaped Benchmark*/stages=N/{dense,matfree} participates —
// BenchmarkRingScaling (envelope-following) and BenchmarkQPRingScaling
// (global quasiperiodic solve) today — and each family is gated
// independently: at every stage count where both modes ran and
// stages >= -ring-gate-stages, the matrix-free solve must be no slower than
// the dense one, and at the family's crossover stage count itself it must
// win by at least -ring-min-speedup. This is a ratio gate — both numbers
// come from the same run on the same machine — so it holds across hardware,
// unlike the absolute ns/op baselines.
//
// With -converter-gate it reads a converter workload run from stdin and
// enforces the MPDE-vs-transient wall-clock claim: any benchmark shaped
// Benchmark*/<circuit>/{mpde,transient} — BenchmarkConverterRipple today —
// must show the mpde mode at least -converter-min-speedup times faster than
// the transient for the same circuit. Another within-run ratio gate, so it
// too holds across hardware.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64   `json:"allocs_per_op,omitempty"`
	MBPerSec    *float64 `json:"mb_per_sec,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Go         string      `json:"go"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	ok := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				b.NsPerOp = v
				ok = true
			}
		case "B/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				b.BytesPerOp = &v
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				b.AllocsPerOp = &v
			}
		case "MB/s":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				b.MBPerSec = &v
			}
		}
	}
	return b, ok
}

func readBenchmarks(sc *bufio.Scanner) ([]Benchmark, error) {
	var out []Benchmark
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			out = append(out, b)
		}
	}
	return out, sc.Err()
}

// check compares the current run against the baseline report and prints one
// line per baseline benchmark. It returns false when a baseline benchmark is
// missing from the run or allocates more than the baseline allows; ns/op
// drift beyond tol in either direction is reported but does not fail.
func check(baseline Report, run []Benchmark, tol float64, allocSlack int64, w io.Writer) bool {
	byName := make(map[string]Benchmark, len(run))
	for _, b := range run {
		byName[b.Name] = b
	}
	pass := true
	for _, base := range baseline.Benchmarks {
		got, ok := byName[base.Name]
		if !ok {
			fmt.Fprintf(w, "FAIL %s: missing from this run\n", base.Name)
			pass = false
			continue
		}
		status := "ok  "
		var notes []string
		if base.AllocsPerOp != nil {
			limit := *base.AllocsPerOp + allocSlack
			switch {
			case got.AllocsPerOp == nil:
				notes = append(notes, "no allocs/op in run (need -benchmem)")
				status = "FAIL"
				pass = false
			case *got.AllocsPerOp > limit:
				notes = append(notes, fmt.Sprintf("allocs/op %d > baseline %d (+%d slack)",
					*got.AllocsPerOp, *base.AllocsPerOp, allocSlack))
				status = "FAIL"
				pass = false
			default:
				notes = append(notes, fmt.Sprintf("allocs/op %d (baseline %d)", *got.AllocsPerOp, *base.AllocsPerOp))
			}
		}
		if base.NsPerOp > 0 {
			rel := got.NsPerOp/base.NsPerOp - 1
			if math.Abs(rel) > tol {
				notes = append(notes, fmt.Sprintf("WARN ns/op %+.0f%% vs baseline (%.3g vs %.3g)",
					100*rel, got.NsPerOp, base.NsPerOp))
				if status == "ok  " {
					status = "warn"
				}
			} else {
				notes = append(notes, fmt.Sprintf("ns/op %+.0f%%", 100*rel))
			}
		}
		fmt.Fprintf(w, "%s %s: %s\n", status, base.Name, strings.Join(notes, ", "))
	}
	return pass
}

// ringResult is one family's stages=N/{dense,matfree} timing pair.
type ringResult struct {
	dense, matfree float64 // ns/op; 0 when that mode did not run
}

// parseRingName extracts (family, stages, mode) from a scaling benchmark name
// like "BenchmarkRingScaling/stages=15/matfree-8". Any top-level benchmark
// with the stages=N/{dense,matfree} sub-benchmark shape participates; the
// trailing -cpu suffix goos appends is stripped from the mode segment.
func parseRingName(name string) (family string, stages int, mode string, ok bool) {
	parts := strings.Split(name, "/")
	if len(parts) != 3 || !strings.HasPrefix(parts[0], "Benchmark") {
		return "", 0, "", false
	}
	s, found := strings.CutPrefix(parts[1], "stages=")
	if !found {
		return "", 0, "", false
	}
	stages, err := strconv.Atoi(s)
	if err != nil || stages <= 0 {
		return "", 0, "", false
	}
	mode = parts[2]
	if i := strings.LastIndexByte(mode, '-'); i >= 0 {
		if _, err := strconv.Atoi(mode[i+1:]); err == nil {
			mode = mode[:i]
		}
	}
	if mode != "dense" && mode != "matfree" {
		return "", 0, "", false
	}
	return parts[0], stages, mode, true
}

// parseConverterName extracts (family, circuit, mode) from a converter
// benchmark name like "BenchmarkConverterRipple/buck/mpde-8". Any top-level
// benchmark with a <circuit>/{mpde,transient} sub-benchmark shape
// participates; the trailing -cpu suffix goos appends is stripped from the
// mode segment.
func parseConverterName(name string) (family, circuit, mode string, ok bool) {
	parts := strings.Split(name, "/")
	if len(parts) != 3 || !strings.HasPrefix(parts[0], "Benchmark") {
		return "", "", "", false
	}
	mode = parts[2]
	if i := strings.LastIndexByte(mode, '-'); i >= 0 {
		if _, err := strconv.Atoi(mode[i+1:]); err == nil {
			mode = mode[:i]
		}
	}
	if mode != "mpde" && mode != "transient" {
		return "", "", "", false
	}
	return parts[0], parts[1], mode, true
}

// converterGate enforces the converter workload's wall-clock claim on one
// run: for every (family, circuit) measured in both modes, the MPDE ripple
// envelope must beat the brute-force transient by at least minSpeedup. Like
// -ring-gate this is a within-run ratio — both numbers come from the same
// machine — so it holds across hardware, unlike the ns/op baselines.
func converterGate(run []Benchmark, minSpeedup float64, w io.Writer) bool {
	type convKey struct{ family, circuit string }
	type convResult struct{ mpde, transient float64 }
	byKey := map[convKey]*convResult{}
	var keys []convKey
	for _, b := range run {
		family, circuit, mode, ok := parseConverterName(b.Name)
		if !ok {
			continue
		}
		k := convKey{family, circuit}
		r := byKey[k]
		if r == nil {
			r = &convResult{}
			byKey[k] = r
			keys = append(keys, k)
		}
		if mode == "mpde" {
			r.mpde = b.NsPerOp
		} else {
			r.transient = b.NsPerOp
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].family != keys[j].family {
			return keys[i].family < keys[j].family
		}
		return keys[i].circuit < keys[j].circuit
	})
	pass := true
	for _, k := range keys {
		r := byKey[k]
		if r.mpde == 0 || r.transient == 0 {
			fmt.Fprintf(w, "FAIL %s/%s: need both modes (mpde %.3g ns/op, transient %.3g ns/op)\n",
				k.family, k.circuit, r.mpde, r.transient)
			pass = false
			continue
		}
		ratio := r.transient / r.mpde
		if ratio < minSpeedup {
			fmt.Fprintf(w, "FAIL %s/%s: mpde speedup %.2fx < required %.2fx (mpde %.3g ns/op, transient %.3g ns/op)\n",
				k.family, k.circuit, ratio, minSpeedup, r.mpde, r.transient)
			pass = false
		} else {
			fmt.Fprintf(w, "ok   %s/%s: mpde %.2fx transient (mpde %.3g ns/op, transient %.3g ns/op)\n",
				k.family, k.circuit, ratio, r.mpde, r.transient)
		}
	}
	if len(keys) == 0 {
		fmt.Fprintf(w, "FAIL no <circuit>/{mpde,transient} benchmarks on stdin; converter claim unverified\n")
		pass = false
	}
	return pass
}

// ringGate enforces the crossover claim on one scaling run, independently per
// benchmark family: wherever both modes were measured at stages >= from,
// matrix-free must be at least as fast as dense, and at each family's
// crossover point (its smallest gated stage count with both modes) it must
// win by minSpeedup. One line per (family, stage count) is printed either
// way, so the report doubles as the scaling table.
func ringGate(run []Benchmark, from int, minSpeedup float64, w io.Writer) bool {
	type ringKey struct {
		family string
		stages int
	}
	byKey := map[ringKey]*ringResult{}
	var families []string
	stagesOf := map[string][]int{}
	for _, b := range run {
		family, stages, mode, ok := parseRingName(b.Name)
		if !ok {
			continue
		}
		k := ringKey{family, stages}
		r := byKey[k]
		if r == nil {
			r = &ringResult{}
			byKey[k] = r
			if len(stagesOf[family]) == 0 {
				families = append(families, family)
			}
			stagesOf[family] = append(stagesOf[family], stages)
		}
		if mode == "dense" {
			r.dense = b.NsPerOp
		} else {
			r.matfree = b.NsPerOp
		}
	}
	sort.Strings(families)
	pass := true
	for _, family := range families {
		order := stagesOf[family]
		sort.Ints(order)
		crossoverSeen := false
		for _, stages := range order {
			r := byKey[ringKey{family, stages}]
			if r.dense == 0 || r.matfree == 0 {
				fmt.Fprintf(w, "ok   %s stages=%d: single mode only (dense %.3g ns/op, matfree %.3g ns/op)\n",
					family, stages, r.dense, r.matfree)
				continue
			}
			ratio := r.dense / r.matfree
			switch {
			case stages < from:
				fmt.Fprintf(w, "ok   %s stages=%d: ungated, matfree %.2fx dense\n", family, stages, ratio)
			case !crossoverSeen:
				crossoverSeen = true
				if ratio < minSpeedup {
					fmt.Fprintf(w, "FAIL %s stages=%d: crossover speedup %.2fx < required %.2fx (dense %.3g ns/op, matfree %.3g ns/op)\n",
						family, stages, ratio, minSpeedup, r.dense, r.matfree)
					pass = false
				} else {
					fmt.Fprintf(w, "ok   %s stages=%d: crossover speedup %.2fx >= %.2fx\n", family, stages, ratio, minSpeedup)
				}
			default:
				if ratio < 1 {
					fmt.Fprintf(w, "FAIL %s stages=%d: matfree slower than dense (%.2fx)\n", family, stages, ratio)
					pass = false
				} else {
					fmt.Fprintf(w, "ok   %s stages=%d: matfree %.2fx dense\n", family, stages, ratio)
				}
			}
		}
		if !crossoverSeen {
			fmt.Fprintf(w, "FAIL %s: no stage count >= %d measured in both modes; crossover unverified\n", family, from)
			pass = false
		}
	}
	if len(families) == 0 {
		fmt.Fprintf(w, "FAIL no stages=N/{dense,matfree} benchmarks on stdin; crossover unverified\n")
		pass = false
	}
	return pass
}

func main() {
	checkFile := flag.String("check", "", "compare stdin against the baseline JSON `file` instead of emitting JSON")
	tol := flag.Float64("tol", 0.20, "relative ns/op drift that triggers a warning in -check mode")
	allocSlack := flag.Int64("alloc-slack", 2, "allocs/op above baseline tolerated in -check mode")
	ringGateMode := flag.Bool("ring-gate", false, "gate a ring scaling run on stdin: matrix-free must beat dense from -ring-gate-stages up, per benchmark family")
	ringFrom := flag.Int("ring-gate-stages", 15, "smallest stage count the -ring-gate crossover claim covers")
	ringMin := flag.Float64("ring-min-speedup", 3.0, "required matfree-over-dense speedup at each family's -ring-gate crossover point")
	convGateMode := flag.Bool("converter-gate", false, "gate a converter run on stdin: the mpde mode must beat the transient per <circuit>, by -converter-min-speedup")
	convMin := flag.Float64("converter-min-speedup", 1.0, "required mpde-over-transient speedup in -converter-gate mode")
	flag.Parse()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	benches, err := readBenchmarks(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *ringGateMode {
		if !ringGate(benches, *ringFrom, *ringMin, os.Stdout) {
			os.Exit(1)
		}
		return
	}

	if *convGateMode {
		if !converterGate(benches, *convMin, os.Stdout) {
			os.Exit(1)
		}
		return
	}

	if *checkFile != "" {
		raw, err := os.ReadFile(*checkFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var baseline Report
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *checkFile, err)
			os.Exit(1)
		}
		if len(baseline.Benchmarks) == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %s: empty baseline\n", *checkFile)
			os.Exit(1)
		}
		if !check(baseline, benches, *tol, *allocSlack, os.Stdout) {
			os.Exit(1)
		}
		return
	}

	rep := Report{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Benchmarks: benches}
	if rep.Benchmarks == nil {
		rep.Benchmarks = []Benchmark{}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
