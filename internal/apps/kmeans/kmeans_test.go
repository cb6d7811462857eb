package kmeans

import (
	"math"
	"testing"

	"wfsim/internal/costmodel"
	"wfsim/internal/dataset"
	"wfsim/internal/runtime"
)

func TestDAGShape(t *testing.T) {
	// Figure 6a: grid 4x1, 3 iterations — per iteration 4 partial_sum
	// tasks then a merge; narrow and deep.
	wf, err := Build(Config{Dataset: dataset.KMeansSmall, Grid: 4, Clusters: 10, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := wf.Graph.CountByName()
	if counts["partial_sum"] != 12 {
		t.Fatalf("partial_sum = %d, want 12", counts["partial_sum"])
	}
	if counts["merge"] != 3 {
		t.Fatalf("merge = %d, want 3", counts["merge"])
	}
	if w := wf.Graph.MaxWidth(); w != 4 {
		t.Fatalf("width = %d, want 4", w)
	}
	if h := wf.Graph.MaxHeight(); h != 6 {
		t.Fatalf("height = %d, want 6 (3 iterations × 2 levels)", h)
	}
	if err := wf.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIterationDependency(t *testing.T) {
	// partial_sums of iteration 1 must depend on iteration 0's merge.
	wf, err := Build(Config{Dataset: dataset.KMeansSmall, Grid: 2, Clusters: 10, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	levels := wf.Graph.Levels()
	if len(levels) != 4 {
		t.Fatalf("levels = %d, want 4", len(levels))
	}
	for _, id := range levels[2] {
		if name := wf.Graph.Name(int(id)); name != "partial_sum" {
			t.Fatalf("level 2 contains %s", name)
		}
	}
}

func TestProfileComplexities(t *testing.T) {
	p := PartialSumProfile(1000, 100, 10)
	if p.ParallelOps != 1000*100*10*10 {
		t.Fatalf("parallel ops = %v, want M·N·K²", p.ParallelOps)
	}
	if p.SerialOps != 100*1000*10 {
		t.Fatalf("serial ops = %v, want 100·M·K", p.SerialOps)
	}
	if p.Threads != 1000*10 {
		t.Fatalf("threads = %v, want M·K", p.Threads)
	}
	m := MergeProfile(4, 100, 10)
	if m.ParallelOps != 0 {
		t.Fatal("merge must be a serial task")
	}
}

func TestSerialFractionDominatesAtLowK(t *testing.T) {
	// The paper picked K-means for its low parallel/serial ratio: at
	// K=10 the serial fraction time must exceed the CPU parallel time is
	// not required, but the ratio must be "low" — parallel below ~40% of
	// user code.
	params := costmodel.DefaultParams()
	prof := PartialSumProfile(48828, 100, 10)
	ser := params.SerialTime(prof)
	par := params.ParallelTime(prof, costmodel.CPU)
	if par/(par+ser) > 0.4 {
		t.Fatalf("parallel fraction = %.2f of user code at K=10, want < 0.4 (low ratio)", par/(par+ser))
	}
}

func TestLargeKOOM(t *testing.T) {
	// Figure 9a: at 10 GB blocks (grid 1x1) with 1000 clusters both the
	// GPU and the host run out of memory; with 10 clusters only the GPU
	// does.
	wf1000, err := Build(Config{Dataset: dataset.KMeansSmall, Grid: 1, Clusters: 1000})
	if err != nil {
		t.Fatal(err)
	}
	_, errGPU := runtime.RunSim(wf1000, runtime.SimConfig{Device: costmodel.GPU})
	if !runtime.ErrOOM(errGPU) {
		t.Fatalf("1000 clusters GPU err = %v, want OOM", errGPU)
	}
	_, errCPU := runtime.RunSim(wf1000, runtime.SimConfig{Device: costmodel.CPU})
	if !runtime.ErrOOM(errCPU) {
		t.Fatalf("1000 clusters CPU err = %v, want host OOM", errCPU)
	}

	wf10, err := Build(Config{Dataset: dataset.KMeansSmall, Grid: 1, Clusters: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, errGPU10 := runtime.RunSim(wf10, runtime.SimConfig{Device: costmodel.GPU})
	if !runtime.ErrOOM(errGPU10) {
		t.Fatalf("10 clusters GPU at 10 GB blocks err = %v, want OOM", errGPU10)
	}
	if _, err := runtime.RunSim(wf10, runtime.SimConfig{Device: costmodel.CPU}); err != nil {
		t.Fatalf("10 clusters CPU run: %v", err)
	}
}

func TestRealExecutionConverges(t *testing.T) {
	cfg := Config{
		Dataset:     dataset.Dataset{Name: "blobs", Rows: 3000, Cols: 8},
		Grid:        4,
		Clusters:    5,
		Iterations:  6,
		Materialize: true,
	}
	wf, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.RunLocal(wf, runtime.LocalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Inertia must be non-increasing across iterations (Lloyd property).
	prev := math.Inf(1)
	for it := 1; it <= cfg.Iterations; it++ {
		in, err := Inertia(res.Store, cfg, KeyCenters(it))
		if err != nil {
			t.Fatal(err)
		}
		if in > prev*(1+1e-9) {
			t.Fatalf("inertia increased at iteration %d: %v -> %v", it, prev, in)
		}
		prev = in
	}
	// With well-separated blobs and k == true cluster count, final
	// inertia must be far below the first iteration's.
	first, _ := Inertia(res.Store, cfg, KeyCenters(1))
	if prev > first {
		t.Fatalf("no convergence: first %v, final %v", first, prev)
	}
}

func TestPartialSumMatchesDirectLloydStep(t *testing.T) {
	// One iteration over 2 blocks must equal a single-threaded Lloyd step
	// over the concatenated data.
	cfg := Config{
		Dataset:     dataset.Dataset{Name: "v", Rows: 200, Cols: 4},
		Grid:        2,
		Clusters:    3,
		Iterations:  1,
		Materialize: true,
	}
	wf, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.RunLocal(wf, runtime.LocalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	store := res.Store
	c0 := store.MustGet(KeyCenters(0))
	c1 := store.MustGet(KeyCenters(1))

	// Direct Lloyd step.
	sums := make([][]float64, cfg.Clusters)
	counts := make([]float64, cfg.Clusters)
	for i := range sums {
		sums[i] = make([]float64, cfg.Dataset.Cols)
	}
	for b := int64(0); b < 2; b++ {
		x := store.MustGet(keyBlock(b))
		for r := int64(0); r < x.Rows; r++ {
			best, bestD := 0, math.Inf(1)
			for c := int64(0); c < cfg.Clusters; c++ {
				var d float64
				for j := int64(0); j < x.Cols; j++ {
					diff := x.At(r, j) - c0.At(c, j)
					d += diff * diff
				}
				if d < bestD {
					best, bestD = int(c), d
				}
			}
			for j := int64(0); j < x.Cols; j++ {
				sums[best][j] += x.At(r, j)
			}
			counts[best]++
		}
	}
	for c := int64(0); c < cfg.Clusters; c++ {
		for j := int64(0); j < cfg.Dataset.Cols; j++ {
			want := c0.At(c, j)
			if counts[c] > 0 {
				want = sums[c][j] / counts[c]
			}
			if math.Abs(c1.At(c, j)-want) > 1e-9 {
				t.Fatalf("center[%d][%d] = %v, want %v", c, j, c1.At(c, j), want)
			}
		}
	}
}

func TestDefaults(t *testing.T) {
	wf, err := Build(Config{Dataset: dataset.KMeansSmall, Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults: 10 clusters, 5 iterations.
	if got := wf.Graph.CountByName()["merge"]; got != 5 {
		t.Fatalf("default iterations = %d, want 5", got)
	}
}

func TestSimAtPaperScale(t *testing.T) {
	// 10 GB dataset, 256 blocks, GPU mode: the Figure 1 configuration.
	wf, err := Build(Config{Dataset: dataset.KMeansSmall, Grid: 256, Clusters: 10, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.RunSim(wf, runtime.SimConfig{Device: costmodel.GPU})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
}
