package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"wfsim/internal/experiments"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 1<<20)
		var sb strings.Builder
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- sb.String()
	}()
	errRun := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	if errRun != nil {
		t.Fatalf("command failed: %v", errRun)
	}
	return out
}

// elapsedStamp matches the wall-clock duration printed in the run header
// ("(1.234s)") — the only non-deterministic part of rendered output.
var elapsedStamp = regexp.MustCompile(`\([0-9a-zµ.]+s\)`)

// TestCmdRunDeterminism is a regression test for the DES substrate: the
// rendered experiment output must be byte-identical across runs. Event
// pooling, goroutine reuse and in-heap rescheduling must be invisible.
func TestCmdRunDeterminism(t *testing.T) {
	render := func() string {
		out := captureStdout(t, func() error { return cmdRun([]string{"fig1"}) })
		return elapsedStamp.ReplaceAllString(out, "")
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("fig1 output differs between identical runs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

func TestCmdList(t *testing.T) {
	out := captureStdout(t, cmdList)
	for _, want := range []string{"fig1", "fig11", "table1", "ext1", "ext2"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

// TestUsageNamesEveryExperiment checks that the usage text lists every
// registered run id, so the help cannot fall behind the registry.
func TestUsageNamesEveryExperiment(t *testing.T) {
	var b strings.Builder
	usage(&b)
	words := strings.Fields(b.String())
	for _, e := range experiments.All() {
		if !slices.Contains(words, e.ID) {
			t.Errorf("usage does not name experiment %q:\n%s", e.ID, b.String())
		}
	}
}

func TestCmdRunTable1(t *testing.T) {
	out := captureStdout(t, func() error { return cmdRun([]string{"table1"}) })
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "block dimension") {
		t.Errorf("run table1 output unexpected:\n%s", out)
	}
}

func TestCmdRunJSON(t *testing.T) {
	out := captureStdout(t, func() error { return cmdRun([]string{"-json", "fig1"}) })
	for _, want := range []string{`"id": "fig1"`, `"PFracSpeedup"`, `"UserCodeSpeedup"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %q", want)
		}
	}
}

func TestCmdRunErrors(t *testing.T) {
	if err := cmdRun(nil); err == nil {
		t.Error("empty run accepted")
	}
	if err := cmdRun([]string{"nope"}); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestCmdServiceBadArrivals drives the service subcommand with arrival
// traces whose instants the engine cannot schedule: a NaN gap and an
// infinite gap, which the service config rejects, and finite gaps whose
// running sum overflows to +Inf, which ClusterSim.Submit rejects. Each
// must come back as an error, not a panic.
func TestCmdServiceBadArrivals(t *testing.T) {
	for _, c := range []struct{ arrivals, want string }{
		{"0,NaN", "interarrival[1] = NaN"},
		{"0,+Inf", "interarrival[1] = +Inf"},
		{"0,1e308,1e308", "arrival instant +Inf"},
	} {
		t.Run(c.arrivals, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			err := cmdService([]string{"-tenants", "1", "-arrivals", c.arrivals, "-grid", "16"})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %v, want one mentioning %q", err, c.want)
			}
		})
	}
}

func TestCmdDAG(t *testing.T) {
	for _, workload := range []string{"kmeans", "matmul", "fma"} {
		out := captureStdout(t, func() error {
			return cmdDAG([]string{workload, "-grid", "2", "-iters", "1"})
		})
		if !strings.Contains(out, "digraph") || !strings.Contains(out, "->") {
			t.Errorf("%s: DOT output missing graph structure", workload)
		}
	}
	if err := cmdDAG(nil); err == nil {
		t.Error("missing workload accepted")
	}
	if err := cmdDAG([]string{"bogus"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestCmdSweep(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdSweep([]string{"-alg", "matmul", "-dataset", "tiny"})
	})
	if !strings.Contains(out, "GPU speedup") || !strings.Contains(out, "matmul") {
		t.Errorf("sweep output unexpected:\n%s", out)
	}
	if err := cmdSweep([]string{"-alg", "bogus"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestCmdAdvise(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdAdvise([]string{"-alg", "matmul", "-grid", "2"})
	})
	for _, want := range []string{"kernel speedup", "recommendation: GPU", "Amdahl"} {
		if !strings.Contains(out, want) {
			t.Errorf("advise output missing %q:\n%s", want, out)
		}
	}
	out = captureStdout(t, func() error {
		return cmdAdvise([]string{"-alg", "kmeans", "-grid", "256"})
	})
	if !strings.Contains(out, "recommendation: CPU") {
		t.Errorf("256-task kmeans should recommend CPU:\n%s", out)
	}
	if err := cmdAdvise([]string{"-alg", "bogus"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestCmdGantt(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdGantt([]string{"-grid", "8", "-width", "40", "-rows", "4"})
	})
	for _, want := range []string{"timeline", "legend", "core"} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt output missing %q", want)
		}
	}
}

func TestCmdTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.prv")
	captureStdout(t, func() error {
		return cmdTrace([]string{"-grid", "8", "-out", path})
	})
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "#Paraver") {
		t.Fatalf("trace file missing header: %q", string(b[:40]))
	}
	csvPath := filepath.Join(dir, "run.csv")
	captureStdout(t, func() error {
		return cmdTrace([]string{"-grid", "8", "-out", csvPath, "-format", "csv"})
	})
	c, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(c), "task_id,") {
		t.Fatal("CSV trace missing header")
	}
}
