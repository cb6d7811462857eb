package experiments

import (
	"context"
	"math"
	"testing"

	"wfsim/internal/dataset"
	"wfsim/internal/runner"
)

// These tests verify the paper's explicit observations O1-O6 (§5) plus the
// §5.4 correlation findings on our reproduction.

// O1: user-code speedups are not affected significantly by block size when
// parallel gains are diminished by serial processing and CPU-GPU
// communication costs (K-means).
func TestObservationO1(t *testing.T) {
	sw, err := runSweep(context.Background(), runner.New(0), KMeans, dataset.KMeansSmall, dataset.KMeansGrids, 10)
	if err != nil {
		t.Fatal(err)
	}
	var min, max float64 = math.Inf(1), math.Inf(-1)
	for _, p := range sw.Points {
		if p.CPU.OOM || p.GPU.OOM {
			continue
		}
		min = math.Min(min, float64(p.UserSpd))
		max = math.Max(max, float64(p.UserSpd))
	}
	if (max-min)/min > 0.15 {
		t.Errorf("O1 violated: user-code speedup spans [%.2f, %.2f] across block sizes", min, max)
	}
}

// O2: parallel-task speedups do not increase significantly for
// coarse-grained tasks, but improve when data (de-)serialization is fully
// parallelized across cores: the per-core movement overhead is minimized
// near #tasks == #cores.
func TestObservationO2(t *testing.T) {
	sw, err := runSweep(context.Background(), runner.New(0), KMeans, dataset.KMeansSmall, dataset.KMeansGrids, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Movement per core (CPU runs) should be lowest when the 256- or
	// 128-task configurations spread (de)serialization over all 128
	// cores, and higher for coarse grains where few cores move all data.
	fineIdx, coarseIdx := -1, -1
	for i, p := range sw.Points {
		if p.CPU.Grid == 128 {
			fineIdx = i
		}
		if p.CPU.Grid == 2 {
			coarseIdx = i
		}
	}
	if fineIdx < 0 || coarseIdx < 0 {
		t.Fatal("sweep missing expected grids")
	}
	fine := sw.Points[fineIdx].CPU.DeserPerCore + sw.Points[fineIdx].CPU.SerPerCore
	coarse := sw.Points[coarseIdx].CPU.DeserPerCore + sw.Points[coarseIdx].CPU.SerPerCore
	if fine >= coarse {
		t.Errorf("O2 violated: per-core movement at 128 tasks (%.2fs) should be below 2 tasks (%.2fs)",
			fine, coarse)
	}
}

// O3: in tasks with low computational complexity (add_func), increasing
// task granularity does not increase GPU speedups significantly.
func TestObservationO3(t *testing.T) {
	sw, err := runSweep(context.Background(), runner.New(0), Matmul, dataset.MatmulSmall, dataset.MatmulGrids, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sw.Points {
		spd := AddFuncSpeedup(p)
		if math.IsNaN(spd) {
			continue
		}
		// add_func never rises above 1 at any granularity, while
		// matmul_func at the same block size is far above 1.
		if spd >= 1 {
			t.Errorf("O3 violated: add_func speedup %.2f at %s",
				spd, dataset.FormatBytes(p.CPU.BlockBytes))
		}
		mm := Speedup(p.CPU.UserMean, p.GPU.UserMean)
		if !math.IsNaN(mm) && mm < 2*spd {
			t.Errorf("O3: matmul_func (%.2f) should dwarf add_func (%.2f)", mm, spd)
		}
	}
}

// O4: GPU speedups are largely affected by algorithm-specific parameters
// when their effect dominates task complexity: the #clusters effect
// (quadratic) dominates the block-dimension effect (linear).
func TestObservationO4(t *testing.T) {
	// Speedup gain from 100x the clusters must far exceed the gain from
	// 100x the block size.
	cpu10, gpu10, err := RunPair(CellConfig{Algorithm: KMeans, Dataset: dataset.KMeansSmall, Grid: 256, Clusters: 10})
	if err != nil {
		t.Fatal(err)
	}
	cpu1000, gpu1000, err := RunPair(CellConfig{Algorithm: KMeans, Dataset: dataset.KMeansSmall, Grid: 256, Clusters: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cpuBig, gpuBig, err := RunPair(CellConfig{Algorithm: KMeans, Dataset: dataset.KMeansSmall, Grid: 2, Clusters: 10})
	if err != nil {
		t.Fatal(err)
	}
	s10 := Speedup(cpu10.UserMean, gpu10.UserMean)
	s1000 := Speedup(cpu1000.UserMean, gpu1000.UserMean)
	sBig := Speedup(cpuBig.UserMean, gpuBig.UserMean)
	clusterGain := s1000 / s10
	blockGain := sBig / s10
	if clusterGain < 3*blockGain {
		t.Errorf("O4 violated: cluster gain %.2f should dominate block gain %.2f", clusterGain, blockGain)
	}
}

// O5: on local disks, scheduling-policy variations barely change CPU/GPU
// execution times.
func TestObservationO5(t *testing.T) {
	r, err := runFig10(context.Background(), runner.New(0), KMeans)
	if err != nil {
		t.Fatal(err)
	}
	res := r.(*Fig10Result)
	for gi := range res.Grids {
		fifo, loc := res.Points[0][gi], res.Points[1][gi] // local disk panels
		for _, pair := range [][2]Cell{{fifo.CPU, loc.CPU}, {fifo.GPU, loc.GPU}} {
			a, b := pair[0], pair[1]
			if a.OOM || b.OOM || a.PTaskMean == 0 {
				continue
			}
			if d := math.Abs(a.PTaskMean-b.PTaskMean) / a.PTaskMean; d > 0.15 {
				t.Errorf("O5 violated: local-disk policy delta %.0f%% at grid %s (%s)",
					d*100, a.GridString, a.Device)
			}
		}
	}
}

// O6: on shared disks, policy variations affect CPU and GPU differently
// for low-complexity tasks — K-means shows a larger policy effect than
// Matmul on shared storage.
func TestObservationO6(t *testing.T) {
	km, err := runFig10(context.Background(), runner.New(0), KMeans)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := runFig10(context.Background(), runner.New(0), Matmul)
	if err != nil {
		t.Fatal(err)
	}
	meanDelta := func(r *Fig10Result) float64 {
		var sum float64
		n := 0
		for gi := range r.Grids {
			a, b := r.Points[2][gi].CPU, r.Points[3][gi].CPU // shared panels
			if a.OOM || b.OOM || a.PTaskMean == 0 {
				continue
			}
			sum += math.Abs(a.PTaskMean-b.PTaskMean) / a.PTaskMean
			n++
		}
		return sum / float64(n)
	}
	dKM := meanDelta(km.(*Fig10Result))
	dMM := meanDelta(mm.(*Fig10Result))
	if dKM < dMM {
		t.Errorf("O6 violated: K-means shared-disk policy delta (%.4f) should exceed Matmul's (%.4f)",
			dKM, dMM)
	}
}

// TestCorrelationFindings pins the §5.4 trends on the Figure 11 matrix.
func TestCorrelationFindings(t *testing.T) {
	cells, _, err := CollectFig11Cells(context.Background(), runner.New(0))
	if err != nil {
		t.Fatal(err)
	}
	m, err := CorrelateCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	at := func(a, b string) float64 {
		v, err := m.At(a, b)
		if err != nil {
			t.Fatalf("missing cell %s/%s: %v", a, b, err)
		}
		return v
	}
	// O1 trend: positive correlation between exec time and parallel
	// fraction, comparable to block size's.
	if v := at(FeatPTaskTime, FeatPFrac); v < 0.2 {
		t.Errorf("r(time, parallel fraction) = %.3f, want positive ≥ 0.2", v)
	}
	if v := at(FeatPTaskTime, FeatBlockSize); v < 0.2 {
		t.Errorf("r(time, block size) = %.3f, want positive ≥ 0.2", v)
	}
	// O2 trend: DAG width has among the weakest correlations with time.
	if v := math.Abs(at(FeatPTaskTime, FeatDAGWidth)); v > 0.25 {
		t.Errorf("r(time, DAG width) = %.3f, want weak (|r| ≤ 0.25)", v)
	}
	// O3 trend: complexity is the strongest task-algorithm correlate.
	cx := at(FeatPTaskTime, FeatComplexity)
	if cx < at(FeatPTaskTime, FeatBlockSize) || cx < math.Abs(at(FeatPTaskTime, FeatDAGWidth)) {
		t.Errorf("complexity (%.3f) should be the strongest task-algorithm correlate", cx)
	}
	// O4 trend: algorithm-specific parameter correlates strongly with
	// complexity (paper: 0.836) and positively with parallel fraction.
	if v := at(FeatAlgoParam, FeatComplexity); v < 0.5 {
		t.Errorf("r(param, complexity) = %.3f, want ≥ 0.5 (paper 0.836)", v)
	}
	if v := at(FeatAlgoParam, FeatPFrac); v <= 0 {
		t.Errorf("r(param, parallel fraction) = %.3f, want positive (paper 0.532)", v)
	}
	// O5/O6 trend: shared positive, local negative with time; scheduling
	// correlations weaker than storage ones.
	if v := at(FeatPTaskTime, FeatShared); v <= 0 {
		t.Errorf("r(time, shared) = %.3f, want positive (paper +0.194)", v)
	}
	if v := at(FeatPTaskTime, FeatLocal); v >= 0 {
		t.Errorf("r(time, local) = %.3f, want negative (paper -0.194)", v)
	}
	if math.Abs(at(FeatPTaskTime, FeatFIFO)) > math.Abs(at(FeatPTaskTime, FeatShared)) {
		t.Error("scheduling-policy correlation should be weaker than storage's (paper ±0.065 vs ±0.194)")
	}
	// Additional findings (§5.4.2):
	// (a) block size correlates with time more strongly than dataset size.
	if at(FeatPTaskTime, FeatBlockSize) <= at(FeatPTaskTime, FeatDataset) {
		t.Error("(a) violated: block size should out-correlate dataset size with exec time")
	}
	// (b) block size anti-correlates with grid dimension and DAG width.
	if at(FeatBlockSize, FeatGridDim) >= -0.5 || at(FeatBlockSize, FeatDAGWidth) >= -0.5 {
		t.Error("(b) violated: block size vs grid/width should be strongly negative")
	}
	if at(FeatGridDim, FeatDAGWidth) < 0.9 {
		t.Error("(b) violated: grid dimension and DAG width should be nearly identical")
	}
	// (c) shared disk co-occurs with generation-order scheduling in the
	// sample design (paper: +0.425).
	if at(FeatShared, FeatFIFO) <= 0 {
		t.Error("(c) violated: shared disk should correlate positively with generation-order")
	}
	// (d) GPU anti-correlates with the parallel-fraction time.
	if at(FeatGPU, FeatPFrac) >= 0 {
		t.Error("(d) violated: GPU should reduce parallel-fraction time")
	}
	// (e) processor type has weak correlation with exec time.
	if v := math.Abs(at(FeatPTaskTime, FeatCPU)); v > 0.4 {
		t.Errorf("(e) violated: |r(time, CPU)| = %.3f, want weak", v)
	}
	// CPU/GPU one-hots are perfectly anti-correlated.
	if v := at(FeatCPU, FeatGPU); math.Abs(v+1) > 1e-9 {
		t.Errorf("r(CPU, GPU) = %.3f, want -1", v)
	}
}
