// Package linreg implements distributed linear regression by batch
// gradient descent — the paper's §5.5.1 extension direction made concrete:
// an algorithm whose parallel/serial ratio sits *between* the two extremes
// the paper analyzes (fully parallelizable Matmul vs serial-heavy K-means),
// providing the intermediate data point the authors call for.
//
// The dataset (M samples × N features) is chunked row-wise; each gradient
// descent iteration emits:
//
//   - gradient — one per block: E local full-batch descent passes over
//     the block (local-SGD / federated-averaging style), emitting the
//     block's weight delta. The O(E·M·N) matrix-vector work is
//     GPU-parallelizable; an O(E·M) residual bookkeeping fraction stays
//     serial, putting ≈half the user code in the parallel fraction —
//     between matmul_func (all parallel) and partial_sum (serial-heavy).
//     The local passes amortize the CPU-GPU transfer of the block over E
//     kernels, the staged-pipeline technique the paper cites for
//     mitigating transfer bottlenecks.
//   - update — one per iteration: averages the g deltas into the next
//     weights. Serial, CPU-only.
//
// Like K-means, the DAG is narrow and deep (iterations serialize); like
// Matmul, the per-task kernel is a dense vectorizable operation.
package linreg

import (
	"fmt"

	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/dataset"
	"wfsim/internal/runtime"
)

// Config parameterizes a linear-regression workflow.
type Config struct {
	// Dataset is the design matrix X (M samples × N features). The
	// targets y are generated alongside the blocks.
	Dataset dataset.Dataset
	// Grid is g: row-wise chunking into g blocks.
	Grid int64
	// Iterations is the number of outer (synchronized) rounds.
	Iterations int
	// LocalEpochs is E: full-batch descent passes each gradient task runs
	// locally before synchronizing (default 10).
	LocalEpochs int
	// LearningRate is the step size η (default 0.05).
	LearningRate float64
	// Materialize attaches real blocks and kernels; targets are produced
	// from a hidden true weight vector plus noise so convergence is
	// verifiable.
	Materialize bool
	// Generator seeds synthetic data (nil: seed 42).
	Generator *dataset.Generator
	// MaterializeBudget caps real allocation (default 256 MB).
	MaterializeBudget int64
}

func (c Config) withDefaults() Config {
	if c.Iterations == 0 {
		c.Iterations = 10
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 10
	}
	if c.MaterializeBudget == 0 {
		c.MaterializeBudget = 256 << 20
	}
	return c
}

// GradientProfile returns the analytic profile of one gradient task over a
// block of m rows × n features running e local epochs.
//
// The parallel fraction is the dense matrix-vector work (≈4·M·N flops per
// epoch, element-parallel: M·N threads); the serial fraction is residual
// bookkeeping at ≈12 interpreter ops per row per epoch. At the paper-scale
// shapes (N = 100, E = 10) the parallel share of user-code time is ≈50% —
// squarely between Matmul (≈100%) and K-means at K=10 (≈24%).
func GradientProfile(m, n int64, e int) costmodel.Profile {
	M, N, E := float64(m), float64(n), float64(e)
	blockBytes := 8 * M * N
	return costmodel.Profile{
		Kernel:      costmodel.KernelKMeans, // memory-bound mat-vec class
		SerialOps:   12 * M * E,
		ParallelOps: 4 * M * N * E,
		Threads:     M * N,
		BytesIn:     blockBytes + 8*M + 8*N, // X block, y block, w
		BytesOut:    8 * N,                  // weight delta
		DeviceMemBytes: 1.15*blockBytes + 8*M + 16*N +
			8*M, // residual vector
		HostMemBytes: 1.15*blockBytes + 8*M + 16*N + 8*M,
	}
}

// UpdateProfile returns the serial per-iteration reduce+step profile.
func UpdateProfile(g, n int64) costmodel.Profile {
	return costmodel.Profile{
		Kernel:       costmodel.KernelGeneric,
		SerialOps:    30 * float64(g) * float64(n),
		HostMemBytes: 8 * float64(g) * float64(n),
	}
}

// Data keys. X and y interleave in ID order (X[0], y[0], X[1], ...), so
// they are named datums; each iteration's deltas d[it,0..g) are one ID
// range, named by the interner on demand in keyDelta's spelling.
func keyX(b int64) string { return dag.IndexedName("X", b) }
func keyY(b int64) string { return dag.IndexedName("y", b) }

// KeyWeights returns the datum name of the weights after iteration it
// (KeyWeights(0) is the zero-initialized input).
func KeyWeights(it int) string { return fmt.Sprintf("w%d", it) }

func keyDelta(it int, b int64) string { return dag.IndexedName("d", int64(it), b) }

// TrueWeights returns the hidden weight vector targets are generated from
// (for convergence verification): w*_j = (j+1)/N.
func TrueWeights(n int64) []float64 {
	w := make([]float64, n)
	for j := range w {
		w[j] = float64(j+1) / float64(n)
	}
	return w
}

// Build constructs the workflow.
func Build(cfg Config) (*runtime.Workflow, error) {
	cfg = cfg.withDefaults()
	part, err := dataset.ByGrid(cfg.Dataset, cfg.Grid, 1)
	if err != nil {
		return nil, fmt.Errorf("linreg: %w", err)
	}
	g := part.GridRows
	n := cfg.Dataset.Cols

	wf := runtime.NewWorkflow("linreg")
	// Per iteration: g 4-param gradients + one (g+2)-param update; datums
	// are 2g inputs, iters+1 weights versions and g deltas per iteration.
	iters := cfg.Iterations
	wf.Hint(iters*(int(g)+1),
		2*int(g)+iters+1+iters*int(g),
		iters*(5*int(g)+2))
	gen := cfg.Generator
	if gen == nil {
		gen = dataset.NewGenerator(42)
	}
	if cfg.Materialize && part.SizeBytes() > cfg.MaterializeBudget {
		return nil, fmt.Errorf("linreg: %s exceeds materialization budget",
			dataset.FormatBytes(part.SizeBytes()))
	}

	trueW := TrueWeights(n)
	xs, ys := make([]int32, g), make([]int32, g)
	for b := int64(0); b < g; b++ {
		xs[b], ys[b] = wf.Datum(keyX(b)), wf.Datum(keyY(b))
		rows, cols, err := part.BlockShape(b, 0)
		if err != nil {
			return nil, err
		}
		if cfg.Materialize {
			x := dataset.NewBlock(dataset.BlockID{Row: b}, rows, cols)
			gen.Fill(x)
			y := dataset.NewBlock(dataset.BlockID{Row: b, Col: 1}, rows, 1)
			for r := int64(0); r < rows; r++ {
				var v float64
				for j := int64(0); j < cols; j++ {
					v += x.At(r, j) * trueW[j]
				}
				y.Set(r, 0, v)
			}
			wf.SetInput(keyX(b), x)
			wf.SetInput(keyY(b), y)
		} else {
			wf.SetSizeByID(xs[b], float64(rows*cols*dataset.ElemSize))
			wf.SetSizeByID(ys[b], float64(rows*dataset.ElemSize))
		}
	}
	wBytes := float64(n * dataset.ElemSize)
	if cfg.Materialize {
		wf.SetInput(KeyWeights(0), dataset.NewBlock(dataset.BlockID{Row: -1}, n, 1))
	} else {
		wf.SetSize(KeyWeights(0), wBytes)
	}

	prevW := wf.Datum(KeyWeights(0))
	updateParams := make([]dag.Param, 0, g+2)
	for it := 0; it < cfg.Iterations; it++ {
		deltas := wf.Graph.Data().Range("d", g, int64(it))
		updateParams = updateParams[:0]
		for b := int64(0); b < g; b++ {
			rows, cols, err := part.BlockShape(b, 0)
			if err != nil {
				return nil, err
			}
			gk := deltas.ID(b)
			wf.SetSizeByID(gk, wBytes)
			spec := runtime.TaskSpec{Profile: GradientProfile(rows, cols, cfg.LocalEpochs)}
			if cfg.Materialize {
				xK, yK, wK, gK := keyX(b), keyY(b), KeyWeights(it), keyDelta(it, b)
				epochs, eta := cfg.LocalEpochs, cfg.LearningRate
				spec.Exec = func(s *runtime.Store) error {
					return execLocalGD(s, xK, yK, wK, gK, epochs, eta)
				}
			}
			wf.AddTask("gradient", spec,
				dag.Param{Data: xs[b], Dir: dag.In},
				dag.Param{Data: ys[b], Dir: dag.In},
				dag.Param{Data: prevW, Dir: dag.In},
				dag.Param{Data: gk, Dir: dag.Out})
			updateParams = append(updateParams, dag.Param{Data: gk, Dir: dag.In})
		}
		nextW := wf.Datum(KeyWeights(it + 1))
		wf.SetSizeByID(nextW, wBytes)
		updateParams = append(updateParams,
			dag.Param{Data: prevW, Dir: dag.In},
			dag.Param{Data: nextW, Dir: dag.Out})
		spec := runtime.TaskSpec{Profile: UpdateProfile(g, n)}
		if cfg.Materialize {
			itC, gg, eta, rowsTotal := it, g, cfg.LearningRate, cfg.Dataset.Rows
			spec.Exec = func(s *runtime.Store) error {
				return execUpdate(s, itC, gg, eta, rowsTotal)
			}
		}
		wf.AddTask("update", spec, updateParams...)
		prevW = nextW
	}
	return wf, nil
}

// execLocalGD runs e full-batch descent passes over the block from the
// shared weights and emits the resulting weight delta.
func execLocalGD(s *runtime.Store, xKey, yKey, wKey, dKey string, e int, eta float64) error {
	x, y, w := s.MustGet(xKey), s.MustGet(yKey), s.MustGet(wKey)
	loc := w.Clone()
	grad := make([]float64, loc.Rows)
	for epoch := 0; epoch < e; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		for r := int64(0); r < x.Rows; r++ {
			var pred float64
			for j := int64(0); j < x.Cols; j++ {
				pred += x.At(r, j) * loc.At(j, 0)
			}
			resid := pred - y.At(r, 0)
			for j := int64(0); j < x.Cols; j++ {
				grad[j] += resid * x.At(r, j)
			}
		}
		for j := int64(0); j < loc.Rows; j++ {
			loc.Set(j, 0, loc.At(j, 0)-eta*grad[j]/float64(x.Rows))
		}
	}
	delta := dataset.NewBlock(dataset.BlockID{}, w.Rows, 1)
	for j := int64(0); j < w.Rows; j++ {
		delta.Set(j, 0, loc.At(j, 0)-w.At(j, 0))
	}
	s.Put(dKey, delta)
	return nil
}

// execUpdate averages the blocks' deltas into the next weights
// (federated-averaging step).
func execUpdate(s *runtime.Store, it int, g int64, eta float64, totalRows int64) error {
	_ = eta
	_ = totalRows
	prev := s.MustGet(KeyWeights(it))
	next := prev.Clone()
	for b := int64(0); b < g; b++ {
		delta := s.MustGet(keyDelta(it, b))
		for j := int64(0); j < next.Rows; j++ {
			next.Set(j, 0, next.At(j, 0)+delta.At(j, 0)/float64(g))
		}
	}
	s.Put(KeyWeights(it+1), next)
	return nil
}

// MSE computes mean squared error of the weights under wKey against the
// materialized blocks — the convergence measure.
func MSE(store *runtime.Store, cfg Config, wKey string) (float64, error) {
	cfg = cfg.withDefaults()
	part, err := dataset.ByGrid(cfg.Dataset, cfg.Grid, 1)
	if err != nil {
		return 0, err
	}
	w := store.Get(wKey)
	if w == nil {
		return 0, fmt.Errorf("linreg: weights %q not found", wKey)
	}
	var sum float64
	var count int64
	for b := int64(0); b < part.GridRows; b++ {
		x, y := store.MustGet(keyX(b)), store.MustGet(keyY(b))
		for r := int64(0); r < x.Rows; r++ {
			var pred float64
			for j := int64(0); j < x.Cols; j++ {
				pred += x.At(r, j) * w.At(j, 0)
			}
			d := pred - y.At(r, 0)
			sum += d * d
			count++
		}
	}
	return sum / float64(count), nil
}
