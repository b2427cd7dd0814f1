package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesBenchmarkJSON keeps the program's metric and workload
// lists and BENCHMARK.json in step.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	for _, c := range []struct {
		kind string
		file []specMetric
		code []spec
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.file), len(c.code))
		}
		for i, m := range c.file {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					c.kind, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloads[i].name)
		}
	}
}

// runBench runs the benchmark in-process and returns its output lines and
// the verdict on the last one.
func runBench(t *testing.T, args ...string) ([]string, result) {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the verdict: %v", err)
	}
	return lines, res
}

// TestWorkloadsReportEveryMetric runs every workload shrunk, untraced and
// traced, and checks that each metric BENCHMARK.json names is printed as
// "workload metric value unit" with a finite value, and that the verdict
// line carries exactly those metrics.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	s := readSpec(t)
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			args := []string{"-small", "-seconds", "0.2", "-seed", "7", "-workload", w.name,
				"-spans", filepath.Join(dir, "spans.json")}
			want := s.EndToEnd
			if trace {
				args = append(args, "--trace", "1")
				want = s.PerLayer
			}
			lines, res := runBench(t, args...)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: verdict %+v", w.name, trace, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: verdict has %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: verdict metric %s = %+v", w.name, trace, m.Name, v)
				}
				if !printed(lines, w.name, m) {
					t.Errorf("%s trace=%v: no line prints %s with unit %s", w.name, trace, m.Name, m.Unit)
				}
			}
			if trace {
				var f struct{ Spans []span }
				raw, err := os.ReadFile(filepath.Join(dir, "spans.json"))
				if err == nil {
					err = json.Unmarshal(raw, &f)
				}
				if err != nil || len(f.Spans) == 0 {
					t.Errorf("%s: span file: %v, %d spans", w.name, err, len(f.Spans))
				}
			}
		}
	}
}

func printed(lines []string, workload string, m specMetric) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == workload && f[1] == m.Name && f[3] == m.Unit {
			v, err := strconv.ParseFloat(f[2], 64)
			return err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
	}
	return false
}

// TestCompareFlagsDoctoredRecords compares a record file with itself, which
// must pass, and with a copy whose solve times were inflated past the bound,
// which must be reported as a regression.
func TestCompareFlagsDoctoredRecords(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	for seed := 1; seed <= 2; seed++ {
		runBench(t, "-small", "-seconds", "0.2", "-workload", "vco-air", "-seed", strconv.Itoa(seed), "-json", a,
			"-spans", filepath.Join(dir, "spans.json"))
	}
	raw, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	var doctored []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		m := rec.Metrics["solve_ms"]
		m.Value *= 2
		rec.Metrics["solve_ms"] = m
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		doctored = append(doctored, string(b))
	}
	b := filepath.Join(dir, "b.jsonl")
	if err := os.WriteFile(b, []byte(strings.Join(doctored, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if code := run([]string{"-compare", "-spec", "../BENCHMARK.json", a, a}, &out); code != 0 {
		t.Fatalf("a record file against itself: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", "-spec", "../BENCHMARK.json", a, b}, &out); code != 1 {
		t.Fatalf("doctored records: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "vco-air solve_ms") || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("doctored solve_ms not reported as a regression:\n%s", out.String())
	}
}
