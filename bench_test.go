package wfsim_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5): one benchmark per artifact, each running the full
// paper-scale experiment on the simulated Minotauro cluster and reporting
// paper-comparable metrics via b.ReportMetric. Run with:
//
//	go test -bench=. -benchmem
//
// Shape assertions live in internal/experiments (calibration_test.go,
// observations_test.go); these benches measure and report.

import (
	"context"
	"fmt"
	goruntime "runtime"
	"testing"

	"wfsim"
	"wfsim/internal/experiments"
	"wfsim/internal/metrics"
	"wfsim/internal/runner"
	"wfsim/internal/sched"
	"wfsim/internal/sim"
	"wfsim/internal/stats"
)

func runExperiment(b *testing.B, id string) experiments.Result {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		// A fresh engine per iteration: memoization must not carry results
		// across iterations, or every iteration after the first is a no-op.
		res, err = e.Run(context.Background(), runner.New(0))
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkFig1 regenerates Figure 1: K-means stage speedups.
func BenchmarkFig1(b *testing.B) {
	res := runExperiment(b, "fig1").(*experiments.Fig1Result)
	b.ReportMetric(res.PFracSpeedup, "pfrac-speedup")
	b.ReportMetric(res.UserCodeSpeedup, "usrcode-speedup")
	b.ReportMetric(res.PTaskSpeedup, "ptask-speedup")
}

// BenchmarkFig7a regenerates Figure 7a: Matmul end-to-end analysis.
func BenchmarkFig7a(b *testing.B) {
	res := runExperiment(b, "fig7a").(*experiments.Fig7Result)
	var max experiments.Ratio
	for _, p := range res.Sweeps[0].Points {
		if !p.CPU.OOM && !p.GPU.OOM && p.PFracSpd > max {
			max = p.PFracSpd
		}
	}
	b.ReportMetric(float64(max), "max-pfrac-speedup")
}

// BenchmarkFig7b regenerates Figure 7b: K-means end-to-end analysis.
func BenchmarkFig7b(b *testing.B) {
	res := runExperiment(b, "fig7b").(*experiments.Fig7Result)
	first := res.Sweeps[0].Points[0]
	b.ReportMetric(float64(first.PTaskSpd), "finegrain-ptask-speedup")
}

// BenchmarkFig8 regenerates Figure 8: matmul_func vs add_func complexity.
func BenchmarkFig8(b *testing.B) {
	res := runExperiment(b, "fig8").(*experiments.Fig8Result)
	var mmMax, addMax float64
	for _, p := range res.Sweeps[0].Points {
		if p.CPU.OOM || p.GPU.OOM {
			continue
		}
		if s := experiments.Speedup(p.CPU.UserMean, p.GPU.UserMean); s > mmMax {
			mmMax = s
		}
		if s := experiments.AddFuncSpeedup(p); s > addMax {
			addMax = s
		}
	}
	b.ReportMetric(mmMax, "matmul_func-max-speedup")
	b.ReportMetric(addMax, "add_func-max-speedup")
}

// BenchmarkFig9a regenerates Figure 9a: the #clusters effect.
func BenchmarkFig9a(b *testing.B) {
	res := runExperiment(b, "fig9a").(*experiments.Fig9aResult)
	b.ReportMetric(float64(res.Sweeps[0].Points[0].UserSpd), "speedup-k10")
	b.ReportMetric(float64(res.Sweeps[2].Points[0].UserSpd), "speedup-k1000")
}

// BenchmarkFig9b regenerates Figure 9b: the data-skew (non-)effect, with
// real kernel execution.
func BenchmarkFig9b(b *testing.B) {
	res := runExperiment(b, "fig9b").(*experiments.Fig9bResult)
	var maxDelta float64
	for _, p := range res.Points {
		if d := p.Delta(); d > maxDelta {
			maxDelta = d
		}
	}
	b.ReportMetric(maxDelta*100, "max-skew-delta-%")
}

// BenchmarkFig10 regenerates Figure 10: storage × scheduler effects.
func BenchmarkFig10(b *testing.B) {
	b.Run("matmul", func(b *testing.B) { runExperiment(b, "fig10a") })
	b.Run("kmeans", func(b *testing.B) {
		res := runExperiment(b, "fig10b").(*experiments.Fig10Result)
		// Shared-vs-local aggregate ratio (CPU, FIFO).
		var local, shared float64
		for gi := range res.Grids {
			local += res.Points[0][gi].CPU.PTaskMean
			shared += res.Points[2][gi].CPU.PTaskMean
		}
		b.ReportMetric(shared/local, "shared/local-ratio")
	})
}

// BenchmarkFig11 regenerates Figure 11: the 192-sample Spearman matrix.
func BenchmarkFig11(b *testing.B) {
	res := runExperiment(b, "fig11").(*experiments.Fig11Result)
	b.ReportMetric(float64(res.Samples), "samples")
	if v, err := res.Matrix.At(experiments.FeatPTaskTime, experiments.FeatComplexity); err == nil {
		b.ReportMetric(v, "r-time-complexity")
	}
}

// BenchmarkFig12 regenerates Figure 12: the Matmul FMA generalizability
// experiment.
func BenchmarkFig12(b *testing.B) {
	res := runExperiment(b, "fig12").(*experiments.Fig8Result)
	var max float64
	for _, p := range res.Sweeps[0].Points {
		if !p.CPU.OOM && !p.GPU.OOM {
			if s := experiments.Speedup(p.CPU.UserMean, p.GPU.UserMean); s > max {
				max = s
			}
		}
	}
	b.ReportMetric(max, "fma-max-speedup")
}

// BenchmarkTable1 regenerates Table 1 (trivially: it is a taxonomy).
func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "table1")
}

// BenchmarkRunnerFig11 measures the trial-runner engine on the widest
// sweep in the suite (the 192-sample Figure 11 design) at serial vs
// all-core parallelism. The j1/jN ratio is the engine's wall-clock win;
// on a single-core machine the two coincide.
func BenchmarkRunnerFig11(b *testing.B) {
	for _, j := range []int{1, goruntime.NumCPU()} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cells, _, err := experiments.CollectFig11Cells(context.Background(), runner.New(j))
				if err != nil {
					b.Fatal(err)
				}
				if len(cells) == 0 {
					b.Fatal("no cells")
				}
			}
		})
	}
}

// --- Substrate micro-benchmarks: the simulator itself must be fast
// enough to sweep hundreds of configurations.

// BenchmarkSimEngine measures raw event throughput of the DES engine.
func BenchmarkSimEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.New()
		for j := 0; j < 1000; j++ {
			e.Schedule(float64(j)*1e-3, func() {})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// waiter is a benchmark lifecycle: a continuation that waits d seconds,
// left times over.
type waiter struct {
	c    sim.Cont
	left int
	d    float64
}

func (w *waiter) step() {
	for w.left > 0 {
		w.left--
		if !w.c.Wait(w.d) {
			return
		}
	}
}

// BenchmarkSimHandoff measures the cost of one park/resume cycle: two
// lifecycles interleave their Waits, so each wait ties with the other's
// pending resume and goes through the queue instead of advancing the clock
// in place — the dominant operation of every simulated task (queueing, I/O
// and compute stages all wait). Steady state should allocate nothing.
func BenchmarkSimHandoff(b *testing.B) {
	b.ReportAllocs()
	var ws [2]waiter
	for i := 0; i < b.N; i++ {
		e := sim.New()
		for k := range ws {
			w := &ws[k]
			w.left, w.d = 1000, 1e-6
			e.Bind(&w.c, w.step)
			w.c.Start(0)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		if st := e.Stats(); st.InPlaceWaits != 0 {
			b.Fatalf("%d of 2000 waits advanced in place; the benchmark must hand off every one", st.InPlaceWaits)
		}
	}
}

// churner is a benchmark lifecycle: after a start delay it moves 125
// transfers of growing size over one link, back to back.
type churner struct {
	c       sim.Cont
	l       *sim.Link
	delay   float64
	started bool
	j       int
}

func (t *churner) step() {
	if !t.started {
		t.started = true
		if !t.c.Wait(t.delay) {
			return
		}
	}
	for t.j < 125 {
		bytes := 1000 + float64(t.j)
		t.j++
		if !t.l.Transfer(&t.c, bytes) {
			return
		}
	}
}

// BenchmarkSimLinkChurn measures fair-share link membership churn: flows
// continually joining and leaving force a completion-event reschedule and a
// rate recomputation per change, the hot path of the storage/PCIe model.
func BenchmarkSimLinkChurn(b *testing.B) {
	b.ReportAllocs()
	var ts [8]churner
	for i := 0; i < b.N; i++ {
		e := sim.New()
		l := sim.NewLink(e, "net", 1e6, 0)
		for w := range ts {
			t := &ts[w]
			// Staggered starts: constant join/leave churn.
			*t = churner{l: l, delay: float64(w) * 1e-4}
			e.Bind(&t.c, t.step)
			t.c.Start(0)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// contender is a benchmark lifecycle: it acquires a server slot, holds it
// for a fixed time and releases it, left times over.
type contender struct {
	c     sim.Cont
	srv   *sim.Server
	left  int
	state uint8 // 0: acquire, 1: slot held, 2: hold elapsed
}

func (t *contender) step() {
	for {
		switch t.state {
		case 0:
			if t.left == 0 {
				return
			}
			t.left--
			t.state = 1
			if !t.srv.Acquire(&t.c) {
				return
			}
		case 1:
			t.state = 2
			if !t.c.Wait(1e-5) {
				return
			}
		case 2:
			t.srv.Release()
			t.state = 0
		}
	}
}

// BenchmarkSimServerContention measures FIFO queue pressure: many more
// lifecycles than slots, so nearly every Acquire queues and every Release
// performs a direct handoff to the head waiter.
func BenchmarkSimServerContention(b *testing.B) {
	b.ReportAllocs()
	var ts [32]contender
	for i := 0; i < b.N; i++ {
		e := sim.New()
		srv := sim.NewServer(e, "cpu", 4)
		for w := range ts {
			t := &ts[w]
			*t = contender{srv: srv, left: 32}
			e.Bind(&t.c, t.step)
			t.c.Start(0)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimWorkflow measures a full paper-scale simulated K-means run
// (1285 tasks, 10 GB, 256 blocks, 5 iterations).
func BenchmarkSimWorkflow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wf, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
			Dataset: wfsim.Datasets.KMeansSmall, Grid: 256, Clusters: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wfsim.RunSim(wf, wfsim.SimConfig{Device: wfsim.GPU}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimWorkflowLarge measures the 100k-task scale point the datum
// interning work opens: a 1024-block K-means with 100 Lloyd iterations
// (102,500 tasks) under the pricier locality policy on node-local storage,
// where every placement decision scores per-datum residency. Before
// interning, string-keyed location maps made this configuration
// allocation-bound; with dense IDs it is a routine benchmark. With task
// lifecycles driven as engine continuations it measured about 0.54 s/op
// and 3.9 K allocs/op, down from about 1.05 s/op and 14.4 K allocs/op on
// coroutine processes (2-vCPU Xeon VM, Go 1.24, -cpu 2, -benchtime 1x,
// three alternating runs each).
func BenchmarkSimWorkflowLarge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wf, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
			Dataset: wfsim.Datasets.KMeansSmall, Grid: 1024, Clusters: 10,
			Iterations: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := wfsim.RunSim(wf, wfsim.SimConfig{
			Device:  wfsim.GPU,
			Storage: wfsim.LocalDisk,
			Policy:  wfsim.DataLocality,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.SchedDecisions != 1024*100+100 {
			b.Fatalf("scheduled %d tasks, want %d", res.SchedDecisions, 1024*100+100)
		}
	}
}

// BenchmarkSimWorkflowHuge is the million-task scale point: a 4096-block
// K-means with 250 Lloyd iterations (1,024,250 tasks). At this scale the
// retained-records Collector alone would hold ~7M records, so the run
// streams metrics into an Aggregates sink (memory stays O(aggregate
// state), not O(tasks)) and recycles substrate storage through an arena
// across iterations. Pending events peak at 4,096 on this run, but that
// peak is the zero-delay ring holding an iteration's dispatch requests:
// the 4-ary heap itself never holds more than a few dozen entries.
//
// The DAG build is ID-first into the compact struct-of-arrays graph
// (DESIGN.md §9, §12) and every task lifecycle is an engine-driven
// continuation rather than a coroutine: one -benchtime 1x iteration
// measured 141 MB/op and 5.1 K allocs/op at about 5.0 s/op, against
// 369 MB/op, 9.4 K allocs/op and about 4.8 s/op with a Task slab (time
// within noise), and about 9.4 s/op, 386 MB/op and 19.9 K allocs/op with
// coroutine processes (2-vCPU Xeon VM, Go 1.24, -cpu 2, five alternating
// runs each). The engine dispatches 13,415,039 events on this run
// (13.10 per task, reported as events/task), 4,032,624 of them from the
// zero-delay ring. 4,874,695 transfers finish in place, 4,852,987 link
// completions resume their lone continuation inline and 1,017,500 waits
// advance the clock in place: 23.59 steps per task with the dispatched
// events (steps/task). Before transfers finished in place and completions
// resumed inline it dispatched 28,017,416 events (27.35 per task). The
// benchmark fails if the makespan or any engine counter moves, so CI's
// perf gate also checks the run's fingerprint, and a fast path that
// switches on or off fails it.
func BenchmarkSimWorkflowHuge(b *testing.B) {
	b.ReportAllocs()
	var arena wfsim.Arena
	agg := metrics.NewAggregates()
	const (
		wantTasks    = 4096*250 + 250
		wantMakespan = 5032.3536777217241
	)
	wantStats := sim.Stats{
		Dispatched: 13415039, RingDispatched: 4032624,
		Resumes: 6088068, LinkCompletions: 4853311, Joins: 425660,
		InPlaceWaits: 1017500, InPlaceTransfers: 4874695, InlineResumes: 4852987,
		PeakPending: 4096,
	}
	var st sim.Stats
	for i := 0; i < b.N; i++ {
		wf, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
			Dataset: wfsim.Datasets.KMeansSmall, Grid: 4096, Clusters: 10,
			Iterations: 250,
		})
		if err != nil {
			b.Fatal(err)
		}
		agg.Reset()
		res, err := wfsim.RunSim(wf, wfsim.SimConfig{
			Device:  wfsim.GPU,
			Storage: wfsim.LocalDisk,
			Policy:  wfsim.DataLocality,
			Sink:    agg,
			Arena:   &arena,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.SchedDecisions != wantTasks {
			b.Fatalf("scheduled %d tasks, want %d", res.SchedDecisions, wantTasks)
		}
		if res.Collector != nil {
			b.Fatal("streaming run retained a collector")
		}
		if res.Makespan != wantMakespan || res.Stats != wantStats {
			b.Fatalf("makespan %.17g and engine counters %+v, want %.17g and %+v",
				res.Makespan, res.Stats, wantMakespan, wantStats)
		}
		st = res.Stats
	}
	b.ReportMetric(wantTasks, "tasks")
	b.ReportMetric(float64(st.Dispatched)/wantTasks, "events/task")
	steps := st.Dispatched + st.InlineResumes + st.InPlaceWaits + st.InPlaceTransfers
	b.ReportMetric(float64(steps)/wantTasks, "steps/task")
}

// BenchmarkDAGBuild isolates workflow construction — task generation,
// datum ID assignment, dependency wiring — without simulating anything: a
// 256-block, 5-iteration K-means (1,285 tasks). Measured at 97 KB/op,
// 70 allocs/op and about 0.33 ms/op into the compact graph, against
// 333 KB/op, 61 allocs/op and about 0.38 ms/op with a Task slab (the
// graph now has more arrays than it had slabs), and
// 738 KB/op, 1,577 allocs/op and about 0.67 ms/op before the build went
// ID-first (2-vCPU Xeon VM, Go 1.24, -cpu 2, three alternating runs
// each).
func BenchmarkDAGBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
			Dataset: wfsim.Datasets.KMeansSmall, Grid: 256, Clusters: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalityPlace isolates one locality placement decision: scoring
// a task's input residency across nodes. This is the per-task inner loop
// the interning refactor turned from string-map lookups into flat
// slice indexing; it must stay allocation-free.
func BenchmarkLocalityPlace(b *testing.B) {
	s, err := sched.New(sched.Locality, 0)
	if err != nil {
		b.Fatal(err)
	}
	const nodes = 8
	loc := make([]int32, 64)
	for i := range loc {
		loc[i] = int32(i % nodes)
	}
	view := sched.View{
		NumNodes: nodes,
		Load:     make([]int, nodes),
		Locate: func(id int32) (int, bool) {
			if int(id) < len(loc) {
				return int(loc[id]), true
			}
			return 0, false
		},
	}
	ref := sched.TaskRef{ID: 1, Name: "partial_sum", Inputs: []sched.DataLoc{
		{ID: 3, Bytes: 64 << 20}, {ID: 11, Bytes: 64 << 20}, {ID: 42, Bytes: 1 << 10},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := s.Place(ref, &view); n < 0 || n >= nodes {
			b.Fatalf("placed on node %d", n)
		}
	}
}

// BenchmarkHEFTPlace isolates one earliest-finish-time placement: tallying
// input residency, then estimating finish time on every candidate node of
// a speed-skewed cluster. Like locality placement it must stay
// allocation-free — it runs once per task grant.
func BenchmarkHEFTPlace(b *testing.B) {
	s, err := sched.New(sched.HEFT, 0)
	if err != nil {
		b.Fatal(err)
	}
	const nodes = 8
	loc := make([]int32, 64)
	for i := range loc {
		loc[i] = int32(i % nodes)
	}
	speed := make([]float64, nodes)
	for i := range speed {
		speed[i] = 1.0
		if i%2 == 1 {
			speed[i] = 0.6
		}
	}
	view := sched.View{
		NumNodes: nodes,
		Load:     make([]int, nodes),
		Speed:    speed,
		XferRate: 1 << 30,
		Locate: func(id int32) (int, bool) {
			if int(id) < len(loc) {
				return int(loc[id]), true
			}
			return 0, false
		},
	}
	ref := sched.TaskRef{ID: 1, Name: "partial_sum", Cost: 2.5, Inputs: []sched.DataLoc{
		{ID: 3, Bytes: 64 << 20}, {ID: 11, Bytes: 64 << 20}, {ID: 42, Bytes: 1 << 10},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := s.Place(ref, &view); n < 0 || n >= nodes {
			b.Fatalf("placed on node %d", n)
		}
	}
}

// BenchmarkWorkStealNext isolates one work-stealing dispatch: finding the
// idlest node, scanning the ready queue newest-first for a task homed on
// it, and falling back to stealing the oldest. The queue is refilled in
// batches outside the measured cost per pop so the scan always has depth.
func BenchmarkWorkStealNext(b *testing.B) {
	s, err := sched.New(sched.WorkSteal, 0)
	if err != nil {
		b.Fatal(err)
	}
	const nodes = 8
	view := sched.View{
		NumNodes: nodes,
		Load:     make([]int, nodes),
		Locate:   func(id int32) (int, bool) { return -1, false },
	}
	s.(interface{ BindView(*sched.View) }).BindView(&view)
	const depth = 64
	var q sched.Queue
	fill := func() {
		for j := 0; j < depth; j++ {
			q.Push(sched.TaskRef{ID: j})
		}
	}
	fill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, ok := s.Next(&q, 0)
		if !ok {
			b.Fatal("queue empty")
		}
		if q.Len() == 0 {
			b.StopTimer()
			fill()
			b.StartTimer()
		}
		_ = ref
	}
}

// BenchmarkRealMatmul measures the real blocked-multiply backend.
func BenchmarkRealMatmul(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wf, err := wfsim.BuildMatmul(wfsim.MatmulConfig{
			Dataset:     wfsim.Dataset{Name: "bench", Rows: 256, Cols: 256},
			Grid:        2,
			Materialize: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wfsim.RunLocal(wf, wfsim.LocalConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpearman measures the correlation kernel on 192 samples × 15
// features (the Figure 11 shape).
func BenchmarkSpearman(b *testing.B) {
	names := make([]string, 15)
	cols := make([][]float64, 15)
	for i := range cols {
		names[i] = string(rune('a' + i))
		cols[i] = make([]float64, 192)
		for j := range cols[i] {
			cols[i][j] = float64((j*31+i*17)%97) / 97
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.CorrelationMatrix(names, cols); err != nil {
			b.Fatal(err)
		}
	}
}
