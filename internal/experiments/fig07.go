package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"wfsim/internal/dataset"
	"wfsim/internal/runner"
	"wfsim/internal/tables"
)

// SweepPoint is one grid-dimension point of a CPU-vs-GPU sweep: one X-axis
// position of the paper's end-to-end charts.
type SweepPoint struct {
	CPU, GPU Cell

	// GPU-over-CPU speedups at the three stages Figure 7 charts.
	PFracSpd Ratio
	UserSpd  Ratio
	PTaskSpd Ratio
}

// OOMLabel renders the paper's chart annotations for a point.
func (p SweepPoint) OOMLabel() string {
	switch {
	case p.CPU.OOM && p.GPU.OOM:
		return "CPU GPU OOM"
	case p.GPU.OOM:
		return "GPU OOM"
	case p.CPU.OOM:
		return "CPU OOM"
	default:
		return ""
	}
}

// DatasetSweep is the full grid sweep of one dataset.
type DatasetSweep struct {
	Dataset dataset.Dataset
	Points  []SweepPoint
}

// Fig7Result reproduces Figure 7: the end-to-end performance analysis —
// GPU speedups over CPU for the parallel fraction, the whole task user
// code, and parallel tasks, plus the underlying stage times, across block
// sizes, for both a small and a large dataset per algorithm.
type Fig7Result struct {
	Algorithm Algorithm
	Clusters  int64
	Sweeps    []DatasetSweep
}

// sweepConfigs enumerates a grid sweep's factor combinations, visiting
// the largest grid first so points come out in ascending block size —
// the X-axis order of the paper's charts.
func sweepConfigs(alg Algorithm, ds dataset.Dataset, grids []int64, clusters int64) []CellConfig {
	cfgs := make([]CellConfig, 0, len(grids))
	for i := len(grids) - 1; i >= 0; i-- {
		cfgs = append(cfgs, CellConfig{
			Algorithm: alg, Dataset: ds, Grid: grids[i], Clusters: clusters,
		})
	}
	return cfgs
}

// sweepPoint derives the Figure 7 stage speedups from a measured pair.
func sweepPoint(p Pair) SweepPoint {
	pt := SweepPoint{CPU: p.CPU, GPU: p.GPU}
	if !p.CPU.OOM && !p.GPU.OOM {
		pt.PFracSpd = Ratio(Speedup(p.CPU.PFracMean, p.GPU.PFracMean))
		pt.UserSpd = Ratio(Speedup(p.CPU.UserMean, p.GPU.UserMean))
		pt.PTaskSpd = Ratio(Speedup(p.CPU.PTaskMean, p.GPU.PTaskMean))
	} else {
		nan := Ratio(math.NaN())
		pt.PFracSpd, pt.UserSpd, pt.PTaskSpd = nan, nan, nan
	}
	return pt
}

// runSweep executes one dataset's grid sweep as a trial set on the
// engine: every (grid, device) combination is an independent simulation.
func runSweep(ctx context.Context, eng *runner.Engine, alg Algorithm, ds dataset.Dataset, grids []int64, clusters int64) (DatasetSweep, error) {
	sw := DatasetSweep{Dataset: ds}
	pairs, err := RunPairs(ctx, eng, fmt.Sprintf("sweep:%s:%s", alg, ds.Name),
		sweepConfigs(alg, ds, grids, clusters))
	if err != nil {
		return sw, fmt.Errorf("%s %s: %w", alg, ds.Name, err)
	}
	for _, p := range pairs {
		sw.Points = append(sw.Points, sweepPoint(p))
	}
	return sw, nil
}

func runFig7(ctx context.Context, eng *runner.Engine, alg Algorithm) (Result, error) {
	r := &Fig7Result{Algorithm: alg, Clusters: 10}
	var cfgs []struct {
		ds    dataset.Dataset
		grids []int64
	}
	if alg == Matmul {
		cfgs = []struct {
			ds    dataset.Dataset
			grids []int64
		}{
			{dataset.MatmulSmall, dataset.MatmulGrids},
			{dataset.MatmulLarge, dataset.MatmulGrids},
		}
	} else {
		cfgs = []struct {
			ds    dataset.Dataset
			grids []int64
		}{
			{dataset.KMeansSmall, dataset.KMeansGrids},
			{dataset.KMeansLarge, dataset.KMeansGrids},
		}
	}
	for _, c := range cfgs {
		sw, err := runSweep(ctx, eng, alg, c.ds, c.grids, r.Clusters)
		if err != nil {
			return nil, err
		}
		r.Sweeps = append(r.Sweeps, sw)
	}
	return r, nil
}

// Render implements Result.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	fig := "7a"
	if r.Algorithm == KMeans {
		fig = "7b"
	}
	fmt.Fprintf(&b, "Figure %s: End-to-end performance analysis, %s\n\n", fig, r.Algorithm)
	for _, sw := range r.Sweeps {
		fmt.Fprintf(&b, "Dataset %s\n", sw.Dataset)
		t := tables.New("GPU speedup over CPU",
			"block size", "grid", "P.Frac", "Usr.Code", "P.Tasks", "")
		for _, p := range sw.Points {
			t.AddRow(
				dataset.FormatBytes(p.CPU.BlockBytes),
				p.CPU.GridString,
				tables.FormatSpeedup(float64(p.PFracSpd)),
				tables.FormatSpeedup(float64(p.UserSpd)),
				tables.FormatSpeedup(float64(p.PTaskSpd)),
				p.OOMLabel(),
			)
		}
		b.WriteString(t.String())

		d := tables.New("Stage times (s; P.Frac per task, Comm+Serial per task, Ser/Deser per core, P.Tasks per level)",
			"block size", "dev", "P.Frac", "Comm+Serial", "Ser/Deser", "P.Tasks")
		for _, p := range sw.Points {
			for _, c := range []Cell{p.CPU, p.GPU} {
				if c.OOM {
					d.AddRow(dataset.FormatBytes(p.CPU.BlockBytes), c.Device.String(), "OOM", "", "", "")
					continue
				}
				d.AddRow(
					dataset.FormatBytes(c.BlockBytes),
					c.Device.String(),
					tables.FormatFloat(c.PFracMean),
					tables.FormatFloat(c.CommMean+c.SerialMean),
					tables.FormatFloat(c.DeserPerCore+c.SerPerCore),
					tables.FormatFloat(c.PTaskMean),
				)
			}
		}
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

func init() {
	register(Experiment{
		ID:    "fig7a",
		Title: "Figure 7a: end-to-end performance analysis, Matmul (8 GB and 32 GB)",
		Run: func(ctx context.Context, eng *runner.Engine) (Result, error) {
			return runFig7(ctx, eng, Matmul)
		},
	})
	register(Experiment{
		ID:    "fig7b",
		Title: "Figure 7b: end-to-end performance analysis, K-means (10 GB and 100 GB)",
		Run: func(ctx context.Context, eng *runner.Engine) (Result, error) {
			return runFig7(ctx, eng, KMeans)
		},
	})
}
