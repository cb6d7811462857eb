// Command wfbench is wfsim's end-to-end benchmark with a per-layer ledger.
// It runs one workload per process, prints every end-to-end metric by
// name with its unit, median and quartiles, checks that the program's
// outputs are correct, and ends its standard output with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 1 it runs the workload twice for half the time each, first
// untraced and then with spans around every call into each layer's public
// functions, and reports the per-layer metrics plus the tracing overhead
// (the difference between the two halves).
//
// Usage, from the repository root (bench/run.sh builds it first):
//
//	bash bench/run.sh -workload sweep-cold -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh compare -parent DIR -change DIR [-workload W]
//
// A benchmark reads the host clock by design, so its files are exempt from
// the walltime determinism lint.
//
//wfsimlint:wallclock
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"sweep-cold", "sweep-warm", "whatif", "huge"}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports, on every workload; each
// workload defines its own operation (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// setupProbes is how many fresh processes time the set-up per run. A probe
// takes a few milliseconds, most of it process start, whose run-to-run
// noise only a median over many probes evens out.
const setupProbes = 41

// Environment of a set-up probe: a re-execution of this binary that only
// performs one workload's set-up and exits.
const (
	probeEnv    = "WFBENCH_PROBE"
	probeDirEnv = "WFBENCH_PROBE_DIR"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	smoke    bool   // tiny inputs and fixed operation counts, for tests
	work     string // scratch directory for stores
	golden   string // expected fig1 render
}

// workload is one benchmark workload.
type workload interface {
	// setup prepares state every phase shares. It is not timed.
	setup() error
	// probe performs, in a fresh process, the set-up that precedes the
	// first timed operation, using dir as scratch space.
	probe(dir string) error
	// probeDir is the directory set-up probes receive, or "" for a fresh
	// scratch directory each.
	probeDir() string
	// run measures the workload for about seconds; tr is nil when
	// untraced.
	run(seconds float64, tr *tracer, chk *checks) (phaseResult, error)
	close()
}

// phaseResult is what one measured phase of a workload yields.
type phaseResult struct {
	opsMS []float64 // wall time of each timed operation
	// tailPct is the percentile of opsMS that op_tail_ms reports: the
	// highest with at least ten operations beyond it in a full run, or 100
	// (the slowest operation) when a run has only a handful.
	tailPct  float64
	allocOps []float64 // bytes allocated by each operation, when separable
	mem      memDelta  // over the timed operations
	// classes holds untraced measurements printed by -trace 0 and reported
	// as per-layer values by -trace 1 (what-if latency by request kind,
	// generator lateness).
	classes map[string]float64
	// layers holds per-layer values the workload computes itself from a
	// traced phase.
	layers map[string]float64
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "sweep-cold":
		return newSweep(cfg, false), nil
	case "sweep-warm":
		return newSweep(cfg, true), nil
	case "whatif":
		return newWhatIf(cfg), nil
	case "huge":
		return newHuge(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s or all)", cfg.workload, strings.Join(workloadNames, ", "))
}

func main() {
	if w := os.Getenv(probeEnv); w != "" {
		os.Exit(probeMain(w, os.Getenv(probeDirEnv)))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("wfbench", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "all", "workload: "+strings.Join(workloadNames, ", ")+" or all")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long one run measures")
	traceFlag := fs.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "write the traced phase's spans to this file as JSON lines")
	scale := fs.String("scale", "full", "full, or smoke for tiny inputs")
	fs.StringVar(&cfg.work, "work", ".bench_build/work", "directory for the benchmark's scratch stores")
	fs.StringVar(&cfg.golden, "golden", "testdata/golden_fig1_render.txt", "expected fig1 render")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag != 0
	cfg.smoke = *scale == "smoke"
	if *scale != "full" && !cfg.smoke {
		fmt.Fprintf(os.Stderr, "wfbench: unknown -scale %q\n", *scale)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "wfbench: -seconds must be positive")
		return 2
	}
	if cfg.workload == "whatif" || cfg.workload == "all" {
		if err := checkWhatIfSeconds(cfg.seconds); err != nil {
			fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
			return 2
		}
	}
	if cfg.workload == "all" {
		return runAll(args, stdout)
	}
	rep, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload, each in its own process, passing the other
// flags through.
func runAll(args []string, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
		return 1
	}
	var rest []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-workload" || a == "--workload":
			i++
		case strings.HasPrefix(a, "-workload=") || strings.HasPrefix(a, "--workload="):
		default:
			rest = append(rest, a)
		}
	}
	status := 0
	for _, w := range workloadNames {
		fmt.Fprintf(stdout, "== %s\n", w)
		cmd := exec.Command(exe, append([]string{"-workload", w}, rest...)...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "wfbench: %s: %v\n", w, err)
			status = 1
		}
	}
	return status
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func runWorkload(cfg config, stdout io.Writer) (report, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return report{}, err
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return report{}, err
	}
	defer w.close()
	if err := w.setup(); err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	chk := &checks{}
	rep := report{Metrics: map[string]value{}}
	if cfg.trace {
		err = tracedRun(cfg, w, chk, rep.Metrics, stdout)
	} else {
		err = untracedRun(cfg, w, chk, rep.Metrics, stdout)
	}
	if err != nil {
		return report{}, err
	}
	rep.Attempted, rep.Failed = chk.counts()
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	for _, m := range chk.messages() {
		fmt.Fprintf(os.Stderr, "wfbench: %s: check failed: %s\n", cfg.workload, m)
	}
	fmt.Fprintf(stdout, "checks: %d operations, %d failed\n", rep.Attempted, rep.Failed)
	return rep, nil
}

func untracedRun(cfg config, w workload, chk *checks, out map[string]value, stdout io.Writer) error {
	setup, err := probeSetup(cfg, w)
	if err != nil {
		return err
	}
	// Peak memory is that of the timed window alone.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	ph, err := w.run(cfg.seconds, nil, chk)
	if err != nil {
		return err
	}
	if len(ph.opsMS) == 0 {
		return errors.New("no operation completed")
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	alloc := make([]float64, len(ph.allocOps))
	for i, b := range ph.allocOps {
		alloc[i] = b / 1e6
	}
	samples := map[string][]float64{
		"setup_s":   setup,
		"op_p50_ms": ph.opsMS,
		"alloc_mb":  alloc,
	}
	vals := map[string]float64{
		"setup_s":     median(setup),
		"op_p50_ms":   median(ph.opsMS),
		"op_tail_ms":  percentile(ph.opsMS, ph.tailPct),
		"alloc_mb":    float64(ph.mem.alloc) / float64(len(ph.opsMS)) / 1e6,
		"peak_rss_mb": rss,
	}
	fmt.Fprintf(stdout, "%-12s %-5s %14s %14s %14s %14s %6s\n", "metric", "unit", "value", "q1", "median", "q3", "n")
	for _, m := range endToEnd {
		out[m.name] = value{vals[m.name], m.unit}
		q1, med, q3 := "-", "-", "-"
		n := 1
		if s := samples[m.name]; len(s) > 0 {
			a, b, c := quartiles(s)
			q1, med, q3 = fmtF(a), fmtF(b), fmtF(c)
			n = len(s)
		}
		fmt.Fprintf(stdout, "%-12s %-5s %14s %14s %14s %14s %6d\n", m.name, m.unit, fmtF(vals[m.name]), q1, med, q3, n)
	}
	for _, k := range sortedKeys(ph.classes) {
		fmt.Fprintf(stdout, "%-28s %14s\n", k, fmtF(ph.classes[k]))
	}
	return nil
}

func tracedRun(cfg config, w workload, chk *checks, out map[string]value, stdout io.Writer) error {
	base, err := w.run(cfg.seconds/2, nil, chk)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := w.run(cfg.seconds/2, tr, chk)
	if err != nil {
		return err
	}
	if len(base.opsMS) == 0 || len(traced.opsMS) == 0 {
		return errors.New("no operation completed")
	}
	vals := layerValues(tr, traced)
	for k, v := range traced.layers {
		vals[k] = v
	}
	for k, v := range base.classes {
		vals[k] = v
	}
	vals["trace.overhead_pct"] = (median(traced.opsMS)/median(base.opsMS) - 1) * 100
	fmt.Fprintf(stdout, "%-40s %-6s %14s\n", "layer metric", "unit", "value")
	for _, m := range perLayer() {
		out[m.name] = value{vals[m.name], m.unit}
		fmt.Fprintf(stdout, "%-40s %-6s %14s\n", m.name, m.unit, fmtF(vals[m.name]))
	}
	tr.writeSelfSummary(stdout)
	if cfg.traceOut != "" {
		if err := tr.writeFile(cfg.traceOut); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	return nil
}

// probeSetup times the workload's set-up in fresh processes: process
// start, package initialisation and the set-up sequence before the first
// timed operation (opening the store and loading its index, creating the
// engine, and for whatif the server listening).
func probeSetup(cfg config, w workload) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		dir := w.probeDir()
		if dir == "" {
			if dir, err = os.MkdirTemp(cfg.work, "probe-"); err != nil {
				return nil, err
			}
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), probeEnv+"="+cfg.workload, probeDirEnv+"="+dir)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		start := time.Now()
		err := cmd.Run()
		d := time.Since(start)
		if w.probeDir() == "" {
			os.RemoveAll(dir)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

func probeMain(name, dir string) int {
	w, err := newWorkload(config{workload: name})
	if err == nil {
		err = w.probe(dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfbench probe: %v\n", err)
		return 1
	}
	return 0
}

// checks counts the operations a run attempted and those whose output
// check failed.
type checks struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

// op records one attempted operation; a non-nil err marks it failed.
func (c *checks) op(err error) {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
	if err != nil {
		c.fail(err)
	}
}

// fail records a failed check, on an operation or on the run as a whole
// (a generator that could not keep to its schedule). The first ten
// messages are kept.
func (c *checks) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, err.Error())
	}
}

func (c *checks) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

func (c *checks) messages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.msgs...)
}

// memDelta is the change in the Go runtime's allocation and GC counters
// over a window.
type memDelta struct {
	alloc, mallocs uint64
	gcCycles       uint32
	gcPauseNs      uint64
}

// memNow reads the cumulative counters memDelta differences.
func memNow() memDelta {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return memDelta{alloc: m.TotalAlloc, mallocs: m.Mallocs, gcCycles: m.NumGC, gcPauseNs: m.PauseTotalNs}
}

func (d *memDelta) add(o memDelta) {
	d.alloc += o.alloc
	d.mallocs += o.mallocs
	d.gcCycles += o.gcCycles
	d.gcPauseNs += o.gcPauseNs
}

func memSince(before memDelta) memDelta {
	after := memNow()
	return memDelta{
		alloc:     after.alloc - before.alloc,
		mallocs:   after.mallocs - before.mallocs,
		gcCycles:  after.gcCycles - before.gcCycles,
		gcPauseNs: after.gcPauseNs - before.gcPauseNs,
	}
}

// resetPeakRSS starts a new peak-RSS window (Linux clear_refs, 5).
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// settle collects garbage before a timed operation, so that each starts
// from the same heap and collections land at the same points in each.
func settle() { goruntime.GC() }

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
