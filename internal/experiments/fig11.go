package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"wfsim/internal/costmodel"
	"wfsim/internal/dataset"
	"wfsim/internal/runner"
	"wfsim/internal/sched"
	"wfsim/internal/stats"
	"wfsim/internal/storage"
	"wfsim/internal/tables"
)

// Feature names of the Figure 11 correlation matrix, in the paper's order.
const (
	FeatPTaskTime  = "Parallel task exec. time"
	FeatBlockSize  = "Block size"
	FeatGridDim    = "Grid dimension"
	FeatPFrac      = "Parallel fraction"
	FeatAlgoParam  = "Algorithm-specific param."
	FeatComplexity = "Computational complexity"
	FeatDAGWidth   = "DAG maximum width"
	FeatDAGHeight  = "DAG maximum height"
	FeatDataset    = "Dataset size"
	FeatCPU        = "CPU"
	FeatGPU        = "GPU"
	FeatShared     = "Shared disk storage"
	FeatLocal      = "Local disk storage"
	FeatFIFO       = "Task gen. order scheduling"
	FeatLocality   = "Data locality scheduling"
)

// Fig11Result reproduces Figure 11: the Spearman correlation matrix over
// every factor and parameter of Table 1, computed from a fresh sweep of
// factor combinations (the paper uses 192 samples: the main experiments
// plus smaller 128 MB / 100 MB datasets).
type Fig11Result struct {
	Samples int
	Skipped int // OOM combinations (no execution time to correlate)
	Matrix  *stats.Matrix
}

// MarshalJSON encodes the result as its fields encode, with the
// correlations as Ratios: a feature that is constant over the samples has
// no defined correlation.
func (r *Fig11Result) MarshalJSON() ([]byte, error) {
	type plain Fig11Result
	type matrix struct {
		*stats.Matrix
		R [][]Ratio // shadows Matrix.R
	}
	out := struct {
		*plain
		Matrix *matrix // shadows plain.Matrix
	}{plain: (*plain)(r)}
	if m := r.Matrix; m != nil {
		out.Matrix = &matrix{Matrix: m, R: make([][]Ratio, len(m.R))}
		for i, row := range m.R {
			out.Matrix.R[i] = make([]Ratio, len(row))
			for j, v := range row {
				out.Matrix.R[i][j] = Ratio(v)
			}
		}
	}
	return json.Marshal(out)
}

// fig11Samples enumerates the sweep: for each algorithm the main dataset
// crosses every storage × scheduling combination, while the supplementary
// datasets and cluster counts run on the default system configuration
// (shared disk, generation order), mirroring §5.4.
func fig11Samples() []CellConfig {
	var out []CellConfig
	add := func(c CellConfig) { out = append(out, c) }

	fullSystem := []StorageSchedCombo{
		{storage.Shared, sched.FIFO},
		{storage.Shared, sched.Locality},
		{storage.Local, sched.FIFO},
		{storage.Local, sched.Locality},
	}
	devices := []costmodel.DeviceKind{costmodel.CPU, costmodel.GPU}

	// Matmul: main 8 GB dataset × full system cross; 128 MB and 32 GB
	// supplements on the default system.
	for _, g := range dataset.MatmulGrids {
		for _, dev := range devices {
			for _, combo := range fullSystem {
				add(CellConfig{Algorithm: Matmul, Dataset: dataset.MatmulSmall, Grid: g,
					Device: dev, Storage: combo.Storage, Policy: combo.Policy})
			}
			for _, ds := range []dataset.Dataset{dataset.MatmulTiny, dataset.MatmulLarge} {
				add(CellConfig{Algorithm: Matmul, Dataset: ds, Grid: g, Device: dev})
			}
		}
	}
	// K-means: main 10 GB dataset × full system cross; 100 MB and 100 GB
	// supplements; 100- and 1000-cluster supplements for the
	// algorithm-specific parameter.
	for _, g := range dataset.KMeansGrids {
		for _, dev := range devices {
			for _, combo := range fullSystem {
				add(CellConfig{Algorithm: KMeans, Dataset: dataset.KMeansSmall, Grid: g,
					Clusters: 10, Device: dev, Storage: combo.Storage, Policy: combo.Policy})
			}
			for _, ds := range []dataset.Dataset{dataset.KMeansTiny, dataset.KMeansLarge} {
				add(CellConfig{Algorithm: KMeans, Dataset: ds, Grid: g, Clusters: 10, Device: dev})
			}
			for _, k := range []int64{100, 1000} {
				add(CellConfig{Algorithm: KMeans, Dataset: dataset.KMeansSmall, Grid: g,
					Clusters: k, Device: dev})
			}
		}
	}
	return out
}

func runFig11(ctx context.Context, eng *runner.Engine) (Result, error) {
	cells, skipped, err := CollectFig11Cells(ctx, eng)
	if err != nil {
		return nil, err
	}
	m, err := CorrelateCells(cells)
	if err != nil {
		return nil, err
	}
	return &Fig11Result{Samples: len(cells), Skipped: skipped, Matrix: m}, nil
}

// CollectFig11Cells executes the 192-sample sweep as one trial set on
// the engine, then drops OOM combinations (they have no execution time).
// The correlation matrix is order-sensitive only through the sample
// order, which the engine preserves.
func CollectFig11Cells(ctx context.Context, eng *runner.Engine) ([]Cell, int, error) {
	all, err := RunCells(ctx, eng, "fig11", fig11Samples())
	if err != nil {
		return nil, 0, fmt.Errorf("fig11: %w", err)
	}
	var cells []Cell
	skipped := 0
	for _, cell := range all {
		if cell.OOM {
			skipped++
			continue
		}
		cells = append(cells, cell)
	}
	return cells, skipped, nil
}

// CorrelateCells builds the Figure 11 feature columns from measured cells
// and computes their Spearman matrix.
func CorrelateCells(cells []Cell) (*stats.Matrix, error) {
	n := len(cells)
	col := func(f func(Cell) float64) []float64 {
		xs := make([]float64, n)
		for i, c := range cells {
			xs[i] = f(c)
		}
		return xs
	}
	catCol := func(f func(Cell) string) []string {
		xs := make([]string, n)
		for i, c := range cells {
			xs[i] = f(c)
		}
		return xs
	}

	names := []string{
		FeatPTaskTime, FeatBlockSize, FeatGridDim, FeatPFrac, FeatAlgoParam,
		FeatComplexity, FeatDAGWidth, FeatDAGHeight, FeatDataset,
	}
	cols := [][]float64{
		col(func(c Cell) float64 { return c.PTaskMean }),
		col(func(c Cell) float64 { return float64(c.BlockBytes) }),
		col(func(c Cell) float64 { return gridCells(c) }),
		col(func(c Cell) float64 { return c.PFracMean }),
		col(func(c Cell) float64 { return float64(c.Clusters) }),
		col(func(c Cell) float64 { return c.Complexity }),
		col(func(c Cell) float64 { return float64(c.DAGWidth) }),
		col(func(c Cell) float64 { return float64(c.DAGHeight) }),
		col(func(c Cell) float64 { return float64(c.Dataset.SizeBytes()) }),
	}

	// One-hot categorical factors, matching the paper's encoding.
	devNames, devCols := stats.OneHot(catCol(func(c Cell) string { return c.Device.String() }))
	names, cols = appendOneHot(names, cols, devNames, devCols, map[string]string{
		"CPU": FeatCPU, "GPU": FeatGPU,
	})
	stoNames, stoCols := stats.OneHot(catCol(func(c Cell) string { return c.Storage.String() }))
	names, cols = appendOneHot(names, cols, stoNames, stoCols, map[string]string{
		"shared disk": FeatShared, "local disk": FeatLocal,
	})
	schNames, schCols := stats.OneHot(catCol(func(c Cell) string { return c.Policy.Describe() }))
	names, cols = appendOneHot(names, cols, schNames, schCols, map[string]string{
		"task generation order": FeatFIFO, "data locality": FeatLocality,
	})

	m, err := stats.CorrelationMatrix(names, cols)
	if err != nil {
		return nil, err
	}

	// The algorithm-specific parameter (#clusters) only exists for
	// K-means; including Matmul samples (which have no such parameter)
	// would wash its correlations out. Recompute that feature's row and
	// column on the K-means subset, which is what gives the paper its
	// strong param-complexity link (0.836).
	var kmIdx []int
	for i, c := range cells {
		if c.Algorithm == KMeans {
			kmIdx = append(kmIdx, i)
		}
	}
	paramCol := -1
	for i, nm := range names {
		if nm == FeatAlgoParam {
			paramCol = i
		}
	}
	if paramCol >= 0 && len(kmIdx) > 1 {
		sub := func(col []float64) []float64 {
			xs := make([]float64, len(kmIdx))
			for j, i := range kmIdx {
				xs[j] = col[i]
			}
			return xs
		}
		pSub := sub(cols[paramCol])
		for j := range names {
			r := stats.Spearman(pSub, sub(cols[j]))
			m.R[paramCol][j] = r
			m.R[j][paramCol] = r
		}
	}
	return m, nil
}

func appendOneHot(names []string, cols [][]float64, rawNames []string, rawCols [][]float64, rename map[string]string) ([]string, [][]float64) {
	for i, rn := range rawNames {
		name := rn
		if mapped, ok := rename[rn]; ok {
			name = mapped
		}
		names = append(names, name)
		cols = append(cols, rawCols[i])
	}
	return names, cols
}

func gridCells(c Cell) float64 {
	if c.Algorithm == KMeans {
		return float64(c.Grid)
	}
	return float64(c.Grid * c.Grid)
}

// Render implements Result.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: Spearman correlation matrix of key features\n")
	fmt.Fprintf(&b, "(%d samples; %d OOM combinations excluded)\n\n", r.Samples, r.Skipped)

	// Header with short indices to keep the matrix readable.
	for i, n := range r.Matrix.Names {
		fmt.Fprintf(&b, "  [%2d] %s\n", i+1, n)
	}
	b.WriteString("\n")
	t := tables.New("", append([]string{""}, indexHeaders(len(r.Matrix.Names))...)...)
	for i := range r.Matrix.Names {
		row := []string{fmt.Sprintf("[%2d]", i+1)}
		for j := range r.Matrix.Names {
			row = append(row, fmt.Sprintf("%6.3f", r.Matrix.R[i][j]))
		}
		t.AddRow(row...)
	}
	b.WriteString(t.String())

	b.WriteString("\nKey cells vs paper (§5.4):\n")
	for _, probe := range []struct {
		a, b  string
		paper string
	}{
		{FeatPTaskTime, FeatPFrac, "+0.377"},
		{FeatPTaskTime, FeatBlockSize, "+0.398"},
		{FeatPTaskTime, FeatComplexity, "+0.499"},
		{FeatPTaskTime, FeatDAGWidth, "-0.005 (weakest)"},
		{FeatPTaskTime, FeatShared, "+0.194"},
		{FeatPTaskTime, FeatLocal, "-0.194"},
		{FeatPTaskTime, FeatCPU, "+0.066 (weak)"},
		{FeatCPU, FeatGPU, "-1.000"},
		{FeatAlgoParam, FeatComplexity, "+0.836"},
		{FeatBlockSize, FeatGridDim, "-0.778"},
		{FeatGridDim, FeatDAGWidth, "+0.961"},
		{FeatGPU, FeatPFrac, "-0.460"},
	} {
		v, err := r.Matrix.At(probe.a, probe.b)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "  r(%s, %s) = %+.3f   (paper: %s)\n", probe.a, probe.b, v, probe.paper)
	}
	return b.String()
}

func indexHeaders(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("[%2d]", i+1)
	}
	return out
}

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Figure 11: Spearman correlation matrix over all factors (192-sample sweep)",
		Run:   runFig11,
	})
}
