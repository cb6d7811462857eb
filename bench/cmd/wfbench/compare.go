package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare and the smoke test read.
type benchSpec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// comparePairs is how many parent/change pairs compare runs per workload:
// the fewest for which "the change wins at least 9 in 10" means anything.
const comparePairs = 10

// compareSeed is the seed of the first pair; pair i uses compareSeed+i on
// both sides, so parent and change see the same inputs.
const compareSeed = 1000

// compareMain runs the benchmark on two checkouts in alternating pairs, for
// BENCHMARK.json's run_seconds each, and judges every end-to-end metric of
// every workload by the rule of the choosing-metrics guide (section 8):
//
//   - gain: the change wins at least 9 in 10 pairs (ties count for
//     neither) and the medians differ by more than the parent's IQR;
//   - unresolved: the parent's own spread is wider than the metric's
//     bound, unless every change run beats every parent run;
//   - regression: the change's median is worse than the parent's by more
//     than the bound;
//   - within bound: anything else.
//
// It exits non-zero on a regression or a failed run.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("wfbench compare", flag.ContinueOnError)
	parent := fs.String("parent", "", "checkout of the parent commit")
	change := fs.String("change", "", "checkout of the change")
	workload := fs.String("workload", "all", "workload to compare, or all")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parent == "" || *change == "" {
		fmt.Fprintln(os.Stderr, "wfbench compare: -parent and -change are required")
		return 2
	}
	spec, err := readSpec(filepath.Join(*change, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfbench compare: %v\n", err)
		return 1
	}
	var names []string
	for _, w := range spec.Workloads {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	status := 0
	fmt.Fprintf(stdout, "%-11s %-12s %30s %30s %6s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, w := range names {
		side := map[string]map[string][]float64{*parent: {}, *change: {}}
		for i := 0; i < comparePairs; i++ {
			order := []string{*parent, *change}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, dir := range order {
				rep, err := runCommand(dir, spec.Command, w, compareSeed+i, spec.RunSeconds)
				if err == nil && !rep.Correct {
					err = fmt.Errorf("%d of %d operations failed their checks", rep.Failed, rep.Attempted)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "wfbench compare: %s in %s: %v\n", w, dir, err)
					return 1
				}
				for _, m := range spec.EndToEnd {
					side[dir][m.Name] = append(side[dir][m.Name], rep.Metrics[m.Name].Value)
				}
			}
		}
		for _, m := range spec.EndToEnd {
			p, c := side[*parent][m.Name], side[*change][m.Name]
			v, wins := verdict(p, c, m.Better == "higher", m.Bound)
			if v == "regression" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-11s %-12s %30s %30s %3d/%-2d  %s\n", w, m.Name, summary(p), summary(c), wins, len(p), v)
		}
	}
	return status
}

func summary(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%s [%s, %s]", fmtF(med), fmtF(q1), fmtF(q3))
}

// verdict applies the comparison rule to paired samples of one metric;
// parent[i] and change[i] ran with the same seed.
func verdict(parent, change []float64, higherBetter bool, bound float64) (string, int) {
	better := func(a, b float64) bool { return a < b != higherBetter && a != b }
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	p1, p, p3 := quartiles(parent)
	c := median(change)
	allBetter := true
	for _, x := range change {
		for _, y := range parent {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := (c - p) / p
	if higherBetter {
		worse = -worse
	}
	switch {
	case 10*wins >= 9*len(parent) && math.Abs(c-p) > p3-p1 && better(c, p):
		return "gain", wins
	case (p3-p1)/p > bound && !allBetter:
		return "unresolved", wins
	case worse > bound:
		return "regression", wins
	}
	return "within bound", wins
}

// runCommand runs the benchmark command of BENCHMARK.json in dir and
// parses the JSON line it ends with.
func runCommand(dir string, command []string, workload string, seed, seconds int) (report, error) {
	var rep report
	if len(command) == 0 {
		return rep, errors.New("BENCHMARK.json has no command")
	}
	args := append(command[1:len(command):len(command)],
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd := exec.Command(command[0], args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); jerr != nil {
		return rep, errors.Join(err, fmt.Errorf("no result line: %w", jerr))
	}
	return rep, nil
}
