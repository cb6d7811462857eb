package model

import (
	"math"
	"testing"
	"testing/quick"

	"wfsim/internal/apps/kmeans"
	"wfsim/internal/apps/matmul"
	"wfsim/internal/costmodel"
	"wfsim/internal/dataset"
	"wfsim/internal/runtime"
)

func TestBreakdownReproducesFigure1(t *testing.T) {
	// The analytic decomposition must reproduce Figure 1's single-task
	// numbers without any simulation.
	p := costmodel.DefaultParams()
	part, err := dataset.ByGrid(dataset.KMeansSmall, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof := kmeans.PartialSumProfile(part.BlockRows, part.BlockCols, 10)
	b := Breakdown(p, prof)
	if b.KernelSpeedup < 4.5 || b.KernelSpeedup > 7 {
		t.Errorf("kernel speedup = %.2f, want ≈5.69", b.KernelSpeedup)
	}
	if b.UserCodeSpeedup < 1.05 || b.UserCodeSpeedup > 1.6 {
		t.Errorf("user code speedup = %.2f, want ≈1.24", b.UserCodeSpeedup)
	}
	// Amdahl consistency: user-code speedup can never exceed the Amdahl
	// limit, and the limit follows from the parallel fraction.
	if b.UserCodeSpeedup > b.AmdahlLimit {
		t.Errorf("speedup %.2f exceeds Amdahl limit %.2f", b.UserCodeSpeedup, b.AmdahlLimit)
	}
	if f := b.ParallelFraction; f < 0.1 || f > 0.4 {
		t.Errorf("parallel fraction = %.2f, want the paper's low ratio", f)
	}
}

func TestBoundsForLevel(t *testing.T) {
	b := BoundsForLevel([]float64{1, 1, 1, 1}, 2)
	if b.Lower != 2 || b.Upper != 3 {
		t.Fatalf("bounds = %+v, want lower 2 upper 3", b)
	}
	// Span-dominated case.
	b = BoundsForLevel([]float64{10, 1, 1}, 4)
	if b.Lower != 10 || b.Upper != 13 {
		t.Fatalf("bounds = %+v, want lower 10 upper 13", b)
	}
	if z := BoundsForLevel(nil, 4); z.Lower != 0 || z.Upper != 0 {
		t.Fatal("empty level should bound to zero")
	}
}

func TestBoundsProperty(t *testing.T) {
	// Lower ≤ Upper, both ≥ max task, Lower ≥ work/p.
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		p := int(pRaw)%16 + 1
		times := make([]float64, len(raw))
		var sum, max float64
		for i, r := range raw {
			times[i] = float64(r)/100 + 0.01
			sum += times[i]
			if times[i] > max {
				max = times[i]
			}
		}
		b := BoundsForLevel(times, p)
		return b.Lower <= b.Upper+1e-12 &&
			b.Lower >= max-1e-12 &&
			b.Lower >= sum/float64(p)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSimulatorRespectsBounds checks every simulated parallel_sum level
// lies within [analytic lower bound, generous upper bound] — the
// simulator-vs-theory validation loop.
func TestSimulatorRespectsBounds(t *testing.T) {
	params := costmodel.DefaultParams()
	for _, grid := range []int64{32, 128, 256} {
		wf, err := kmeans.Build(kmeans.Config{
			Dataset: dataset.KMeansSmall, Grid: grid, Clusters: 10, Iterations: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runtime.RunSim(wf, runtime.SimConfig{Device: costmodel.CPU})
		if err != nil {
			t.Fatal(err)
		}
		part, _ := dataset.ByGrid(dataset.KMeansSmall, grid, 1)
		prof := kmeans.PartialSumProfile(part.BlockRows, part.BlockCols, 10)
		prof.ReadBytes = float64(part.BlockBytes())
		perTask := TaskTime(params, prof, costmodel.CPU)
		times := make([]float64, grid)
		for i := range times {
			times[i] = perTask
		}
		b := BoundsForLevel(times, 128)
		start, end, ok := res.Collector.Aggregate().LevelSpan(0)
		if !ok {
			t.Fatal("no level 0 records")
		}
		span := end - start
		if span < b.Lower*0.95 {
			t.Errorf("grid %d: simulated level %.2fs below analytic lower bound %.2fs",
				grid, span, b.Lower)
		}
		// Contention (shared GPFS, scheduler) may exceed the
		// contention-free Graham upper bound; allow the I/O floor on top.
		floor := IOFloor(float64(grid)*float64(part.BlockBytes()), params.SharedBandwidth)
		if span > b.Upper+floor+1 {
			t.Errorf("grid %d: simulated level %.2fs far above upper bound %.2fs + floor %.2fs",
				grid, span, b.Upper, floor)
		}
	}
}

// TestAdvisorAgreesWithSimulator validates the §5.4.3 advisor: its verdict
// must match the simulator's measured winner across the Figure 7b sweep.
func TestAdvisorAgreesWithSimulator(t *testing.T) {
	adv := NewAdvisor()
	for _, grid := range []int64{16, 32, 64, 128, 256} {
		part, err := dataset.ByGrid(dataset.KMeansSmall, grid, 1)
		if err != nil {
			t.Fatal(err)
		}
		prof := kmeans.PartialSumProfile(part.BlockRows, part.BlockCols, 10)
		prof.ReadBytes = float64(part.BlockBytes())
		prof.WriteBytes = 8 * 10 * 101
		rec := adv.Recommend(prof, int(grid))

		// Ground truth: simulate both devices and compare the
		// partial_sum level spans.
		span := func(dev costmodel.DeviceKind) float64 {
			wf, err := kmeans.Build(kmeans.Config{
				Dataset: dataset.KMeansSmall, Grid: grid, Clusters: 10, Iterations: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := runtime.RunSim(wf, runtime.SimConfig{Device: dev})
			if err != nil {
				t.Fatal(err)
			}
			s, e, _ := res.Collector.Aggregate().LevelSpan(0)
			return e - s
		}
		cpuSpan, gpuSpan := span(costmodel.CPU), span(costmodel.GPU)
		simGPUWins := gpuSpan < cpuSpan
		// Tolerate disagreement only in the near-tie region (<12%).
		gap := math.Abs(gpuSpan-cpuSpan) / math.Max(gpuSpan, cpuSpan)
		if rec.UseGPU != simGPUWins && gap > 0.12 {
			t.Errorf("grid %d: advisor says GPU=%v, simulator says GPU=%v (cpu %.2fs gpu %.2fs)",
				grid, rec.UseGPU, simGPUWins, cpuSpan, gpuSpan)
		}
	}
}

func TestAdvisorOOM(t *testing.T) {
	adv := NewAdvisor()
	// Matmul at 8 GB blocks: GPU OOM → advisor must say CPU, confidently.
	mm, _ := matmul.Profiles(32768)
	mm.ReadBytes, mm.WriteBytes = mm.BytesIn, mm.BytesOut
	rec := adv.Recommend(mm, 1)
	if rec.UseGPU || !rec.Confident || !rec.GPU.OOM {
		t.Fatalf("rec = %+v, want confident CPU due to GPU OOM", rec)
	}
}

func TestAdvisorPrefersGPUForCompute(t *testing.T) {
	adv := NewAdvisor()
	// Matmul 2 GB blocks, 8 tasks: the Figure 7a regime where GPU wins big.
	mm, _ := matmul.Profiles(16384)
	mm.ReadBytes, mm.WriteBytes = mm.BytesIn, mm.BytesOut
	rec := adv.Recommend(mm, 8)
	if !rec.UseGPU {
		t.Fatalf("advisor should offload 2 GB matmul blocks (rec = %+v)", rec)
	}
}

func TestIOFloor(t *testing.T) {
	if IOFloor(1e9, 1e9) != 1 {
		t.Fatal("floor math broken")
	}
	if IOFloor(1e9, 0) != 0 {
		t.Fatal("zero bandwidth should not divide")
	}
}
