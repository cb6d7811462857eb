package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"wfsim/internal/experiments"
)

// TestMain lets set-up probes, which re-execute the test binary, run
// their probe instead of the tests.
func TestMain(m *testing.M) {
	if w := os.Getenv(probeEnv); w != "" {
		os.Exit(probeMain(w, os.Getenv(probeDirEnv)))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload of BENCHMARK.json at smoke scale, untraced
// and traced. Every output check must pass, and the result line must carry
// exactly the metrics BENCHMARK.json names for that mode, with their
// units. It asserts nothing about timings.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		for trace := range 2 {
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, trace), func(t *testing.T) {
				var out bytes.Buffer
				code := benchMain([]string{
					"-workload", w.Name, "-seed", "7", "-seconds", "1", "-trace", fmt.Sprint(trace),
					"-scale", "smoke", "-work", t.TempDir(), "-golden", "../../../testdata/golden_fig1_render.txt",
				}, &out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("exit %d, no result line: %v\n%s", code, err, out.String())
				}
				if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, %d of %d failed\n%s", code, rep.Correct, rep.Failed, rep.Attempted, out.String())
				}
				for name, unit := range want[trace] {
					if got, ok := rep.Metrics[name]; !ok || got.Unit != unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", name, got, ok, unit)
					}
				}
				if len(rep.Metrics) != len(want[trace]) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(rep.Metrics), len(want[trace]))
				}
			})
		}
	}
}

// TestColdDraws checks that the what-if generator draws as many distinct
// cold cells as the longest run checkWhatIfSeconds accepts needs, and that
// a longer run is rejected up front.
func TestColdDraws(t *testing.T) {
	limit := coldCombos() * (maxDelta - minDelta)
	colds, err := drawCold(rand.New(rand.NewPCG(1, 0)), baseCells(), limit)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, b := range baseCells() {
		seen[experiments.CellKey(b)] = true
	}
	for _, c := range colds {
		if seen[c.key] {
			t.Fatalf("cold key %s drawn twice or equal to a base cell", c.key)
		}
		seen[c.key] = true
	}
	if err := checkWhatIfSeconds(20); err != nil {
		t.Errorf("20 s rejected: %v", err)
	}
	if err := checkWhatIfSeconds(1000); err == nil {
		t.Error("1000 s accepted, though it needs more cold cells than exist")
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4),
// whose spreads the acceptance of a benchmark run is judged by.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		higher         bool
		want           string
	}{
		{"faster", steady, scale(steady, 0.8), false, "gain"},
		{"same", steady, steady, false, "within bound"},
		{"slower within bound", steady, scale(steady, 1.05), false, "within bound"},
		{"slower past bound", steady, scale(steady, 1.2), false, "regression"},
		{"higher is better", steady, scale(steady, 0.8), true, "regression"},
		{"spread wider than bound", noisy, scale(noisy, 1.05), false, "unresolved"},
	} {
		if got, _ := verdict(tc.parent, tc.change, tc.higher, 0.1); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
