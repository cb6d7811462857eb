//go:build ignore

// benchgate reads `go test -bench` output on stdin and either gates it
// against, or records it into, a JSON benchmark-tracking file (default
// BENCH_substrate.json). Multiple -count runs of the same benchmark are
// averaged. Usage:
//
//	go test -run '^$' -bench 'SimWorkflow(Large|Huge)?$' -benchmem -count 2 . |
//	    go run scripts/benchgate.go -gate SimWorkflow,SimWorkflowLarge,SimWorkflowHuge
//
//	go test -run '^$' -bench 'Sim' -benchmem -count 5 . |
//	    go run scripts/benchgate.go -record after-my-change
//
// Gate mode fails (exit 1) if any gated benchmark regressed past its
// budget relative to the latest snapshot that records it. The budgets are
// asymmetric on purpose: ns/op gets 25% headroom because shared CI runners
// time noisily, while allocs/op gets only 10% — counting is exact, so any
// growth there is a real hot-path change, not noise. Improvements never
// fail the gate; record them (scripts/bench.sh) so the next gate measures
// against the new level.
//
// Record mode appends every benchmark on stdin as a labelled snapshot.
// The file keeps every snapshot ever recorded, so a perf regression (or
// an optimisation claim) is checkable against history instead of
// folklore.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type bench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	runs        int
}

type snapshot struct {
	Label      string            `json:"label"`
	Date       string            `json:"date"`
	Go         string            `json:"go"`
	Benchmarks map[string]*bench `json:"benchmarks"`
}

type file struct {
	Snapshots []*snapshot `json:"snapshots"`
}

func main() {
	path := flag.String("file", "BENCH_substrate.json", "tracking file holding the snapshots")
	record := flag.String("record", "", "append stdin's benchmarks as a snapshot with this label instead of gating")
	gate := flag.String("gate", "SimWorkflow,SimWorkflowLarge,SimWorkflowHuge", "comma-separated benchmarks to gate")
	nsBudget := flag.Float64("ns-budget", 0.25, "allowed fractional ns/op regression")
	allocBudget := flag.Float64("alloc-budget", 0.10, "allowed fractional allocs/op regression")
	flag.Parse()

	var all file
	data, err := os.ReadFile(*path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &all); err != nil {
			fail("%s is not valid JSON: %v", *path, err)
		}
	case *record == "" || !os.IsNotExist(err):
		fail("%v", err)
	}

	got := parse()
	if *record != "" {
		recordSnapshot(&all, *path, *record, got)
		return
	}
	if !gateSnapshot(&all, *path, strings.Split(*gate, ","), got, *nsBudget, *allocBudget) {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}

// parse passes stdin through to stdout, so the run stays visible, and
// averages every benchmark result line by name.
func parse() map[string]*bench {
	got := map[string]*bench{}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// BenchmarkName-8  N  ns/op  [B/op]  [allocs/op]
		if len(f) < 4 || f[3] != "ns/op" {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		b := got[name]
		if b == nil {
			b = &bench{}
			got[name] = b
		}
		b.runs++
		b.NsPerOp += (ns - b.NsPerOp) / float64(b.runs)
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "B/op":
				b.BytesPerOp += (v - b.BytesPerOp) / float64(b.runs)
			case "allocs/op":
				b.AllocsPerOp += (v - b.AllocsPerOp) / float64(b.runs)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fail("%v", err)
	}
	return got
}

// recordSnapshot appends got to the tracking file under label.
func recordSnapshot(all *file, path, label string, got map[string]*bench) {
	if len(got) == 0 {
		fail("no benchmark lines on stdin")
	}
	all.Snapshots = append(all.Snapshots, &snapshot{
		Label:      label,
		Date:       time.Now().UTC().Format("2006-01-02"),
		Go:         runtime.Version(),
		Benchmarks: got,
	})
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "benchgate: recorded %d benchmark(s) as %q in %s\n", len(got), label, path)
}

// gateSnapshot checks each gated benchmark in got against its baseline —
// the most recent snapshot that records it (not every snapshot runs every
// benchmark) — and reports whether all of them are within budget.
func gateSnapshot(all *file, path string, gated []string, got map[string]*bench, nsBudget, allocBudget float64) bool {
	ok := true
	for _, name := range gated {
		var want *bench
		var label string
		for i := len(all.Snapshots) - 1; i >= 0 && want == nil; i-- {
			want, label = all.Snapshots[i].Benchmarks[name], all.Snapshots[i].Label
		}
		if want == nil {
			fail("no snapshot in %s records %q", path, name)
		}
		have := got[name]
		if have == nil {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: gated benchmark missing from input\n", name)
			ok = false
			continue
		}
		nsLimit := want.NsPerOp * (1 + nsBudget)
		allocLimit := want.AllocsPerOp * (1 + allocBudget)
		nsOK := have.NsPerOp <= nsLimit
		allocOK := want.AllocsPerOp == 0 || have.AllocsPerOp <= allocLimit
		if !nsOK {
			fmt.Fprintf(os.Stderr,
				"benchgate: FAIL %s: %.0f ns/op exceeds %.0f (baseline %q: %.0f, budget +%d%%)\n",
				name, have.NsPerOp, nsLimit, label, want.NsPerOp, int(nsBudget*100))
		}
		if !allocOK {
			fmt.Fprintf(os.Stderr,
				"benchgate: FAIL %s: %.1f allocs/op exceeds %.1f (baseline %q: %.1f, budget +%d%%)\n",
				name, have.AllocsPerOp, allocLimit, label, want.AllocsPerOp, int(allocBudget*100))
		}
		if nsOK && allocOK {
			fmt.Fprintf(os.Stderr, "benchgate: ok %s: %.0f ns/op, %.1f allocs/op (baseline %q)\n",
				name, have.NsPerOp, have.AllocsPerOp, label)
		}
		ok = ok && nsOK && allocOK
	}
	return ok
}
