// Package kmeans implements the paper's partially parallelizable workload:
// dislib-style distributed K-means (§4.4.4).
//
// The dataset (M samples × N features) is chunked row-wise into a g×1 grid
// — one block per task, as the paper enforces by setting grid columns to 1.
// Each Lloyd iteration emits:
//
//   - partial_sum — one per block (g tasks): assigns the block's samples to
//     the nearest current center and accumulates per-cluster feature sums
//     and counts. Its user code is partially parallel: the O(M·N·K²)
//     distance computation is GPU-accelerable while an O(M·K) bookkeeping
//     fraction stays serial, giving the low parallel/serial ratio the paper
//     selected K-means for.
//   - merge — one per iteration: reduces the g partial sums into the next
//     centers. Serial, so it always runs on a CPU core.
//
// Each iteration depends on the previous iteration's centers, so the DAG is
// narrow and deep (Figure 6a): low task-level parallelism and a high degree
// of task dependency.
package kmeans

import (
	"fmt"
	"math"
	"strconv"

	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/dataset"
	"wfsim/internal/runtime"
)

// Config parameterizes a K-means workflow.
type Config struct {
	// Dataset is the samples matrix (M rows × N feature columns).
	Dataset dataset.Dataset
	// Grid is g: the dataset is chunked row-wise into g blocks.
	Grid int64
	// Clusters is K, the algorithm-specific parameter of Table 1 /
	// Figure 9a.
	Clusters int64
	// Iterations is the number of Lloyd iterations (DAG depth).
	Iterations int
	// Materialize attaches real blocks and kernels.
	Materialize bool
	// Generator fills materialized inputs (nil: blob generator, seed 42).
	Generator *dataset.Generator
	// MaterializeBudget caps real allocation (default 256 MB).
	MaterializeBudget int64
	// RawData fills materialized blocks with the generator's raw
	// distribution (uniform or skewed) instead of clustered blobs — used
	// by the data-skew experiment (Figure 9b), where the distribution
	// itself is the factor under test.
	RawData bool
}

func (c Config) withDefaults() Config {
	if c.Clusters == 0 {
		c.Clusters = 10
	}
	if c.Iterations == 0 {
		c.Iterations = 5
	}
	if c.MaterializeBudget == 0 {
		c.MaterializeBudget = 256 << 20
	}
	return c
}

// PartialSumProfile returns the analytic profile of one partial_sum task
// over a block of m rows × n features with k clusters.
//
// Calibration (see costmodel.DefaultParams and DESIGN.md §4): the parallel
// fraction follows the paper's stated O(M·N·K²) complexity, while the
// serial bookkeeping fraction grows only linearly in K (O(M·K)). Parallel
// work thus outgrows serial work as K rises, which is exactly why Figure
// 9a's user-code speedup climbs from ≈1.2× at K=10 toward the kernel's
// saturated ≈9× at K=1000, and why speedups are insensitive to block size
// (both fractions are linear in M).
func PartialSumProfile(m, n, k int64) costmodel.Profile {
	M, N, K := float64(m), float64(n), float64(k)
	blockBytes := 8 * M * N
	return costmodel.Profile{
		Kernel:      costmodel.KernelKMeans,
		SerialOps:   100 * M * K,
		ParallelOps: M * N * K * K,
		Threads:     M * K,
		BytesIn:     blockBytes + 8*K*N,
		BytesOut:    8 * K * (N + 1),
		// Device footprint: the staged block (CuPy keeps host-pinned and
		// device copies briefly: ~1.15×), the centers, and the M×K
		// distance matrix — the term that causes the large-K OOMs of
		// Figure 9a.
		DeviceMemBytes: 1.15*blockBytes + 8*K*N + 8*M*K,
		// Host footprint additionally keeps per-cluster masks/labels
		// derived from the distances (~1.3× the distance matrix), which
		// is what pushes the 10 GB-block × 1000-cluster configuration
		// past the node's 128 GB ("CPU GPU OOM" in Figure 9a).
		HostMemBytes: 1.15*blockBytes + 8*K*N + 1.3*8*M*K,
	}
}

// MergeProfile returns the profile of the per-iteration serial reduction
// over g partial results with k clusters and n features.
func MergeProfile(g, n, k int64) costmodel.Profile {
	return costmodel.Profile{
		Kernel:    costmodel.KernelKMeans,
		SerialOps: 50 * float64(g) * float64(k) * float64(n+1),
		// ParallelOps == 0: merge is a serial task and stays on CPU.
		HostMemBytes: 8 * float64(g) * float64(k) * float64(n+1),
	}
}

// Data keys. Build reserves the indexed families X[b] and ps[it,b] as ID
// ranges, whose names the interner renders on demand; these functions
// spell the same names for the local backend's store and for tests.
func keyBlock(b int64) string { return dag.IndexedName("X", b) }

// KeyCenters returns the datum name of the centers after iteration it
// (KeyCenters(0) is the initial centers input).
func KeyCenters(it int) string {
	buf := make([]byte, 0, 12)
	buf = append(buf, 'C')
	buf = strconv.AppendInt(buf, int64(it), 10)
	return string(buf)
}

func keyPartial(it int, b int64) string { return dag.IndexedName("ps", int64(it), b) }

// Build constructs the workflow.
func Build(cfg Config) (*runtime.Workflow, error) {
	cfg = cfg.withDefaults()
	part, err := dataset.ByGrid(cfg.Dataset, cfg.Grid, 1)
	if err != nil {
		return nil, fmt.Errorf("kmeans: %w", err)
	}
	g := part.GridRows
	n := cfg.Dataset.Cols
	k := cfg.Clusters

	wf := runtime.NewWorkflow("kmeans")
	data := wf.Graph.Data()
	// Exact shape: per iteration g partial_sums (3 params each) + one
	// merge (g+1 params); datums are g blocks, iters+1 centers versions
	// and g partials per iteration.
	iters := cfg.Iterations
	wf.Hint(iters*(int(g)+1),
		int(g)+iters+1+iters*int(g),
		iters*(4*int(g)+1))
	gen := cfg.Generator
	if gen == nil {
		gen = dataset.NewGenerator(42)
	}
	if cfg.Materialize && part.SizeBytes() > cfg.MaterializeBudget {
		return nil, fmt.Errorf("kmeans: %s input exceeds materialization budget %s",
			dataset.FormatBytes(part.SizeBytes()), dataset.FormatBytes(cfg.MaterializeBudget))
	}

	// Input blocks: one ID range, X[0..g).
	blocks := data.Range("X", g)
	for b := int64(0); b < g; b++ {
		rows, cols, err := part.BlockShape(b, 0)
		if err != nil {
			return nil, err
		}
		if cfg.Materialize {
			blk := dataset.NewBlock(dataset.BlockID{Row: b}, rows, cols)
			if cfg.RawData {
				gen.Fill(blk)
			} else {
				gen.FillBlobs(blk, int(k), 0.5)
			}
			wf.SetInput(keyBlock(b), blk)
		} else {
			wf.SetSizeByID(blocks.ID(b), float64(rows*cols*dataset.ElemSize))
		}
	}
	// Initial centers: the first k rows of block 0 (dislib's default-ish
	// deterministic init).
	centersBytes := float64(k * n * dataset.ElemSize)
	if cfg.Materialize {
		blk0Rows, _, _ := part.BlockShape(0, 0)
		if blk0Rows < k {
			return nil, fmt.Errorf("kmeans: block 0 has %d rows < %d clusters", blk0Rows, k)
		}
		c0 := dataset.NewBlock(dataset.BlockID{Row: -1}, k, n)
		// Copy from a freshly generated block 0 so C0 matches the input.
		src := dataset.NewBlock(dataset.BlockID{Row: 0}, blk0Rows, n)
		if cfg.RawData {
			gen.Fill(src)
		} else {
			gen.FillBlobs(src, int(k), 0.5)
		}
		copy(c0.Data, src.Data[:k*n])
		wf.SetInput(KeyCenters(0), c0)
	} else {
		wf.SetSize(KeyCenters(0), centersBytes)
	}

	// Iterations: each reserves its partial sums ps[it,0..g) as one range.
	prevC := wf.Datum(KeyCenters(0))
	mergeParams := make([]dag.Param, 0, g+1)
	for it := 0; it < cfg.Iterations; it++ {
		partials := data.Range("ps", g, int64(it))
		mergeParams = mergeParams[:0]
		for b := int64(0); b < g; b++ {
			rows, cols, err := part.BlockShape(b, 0)
			if err != nil {
				return nil, err
			}
			ps := partials.ID(b)
			wf.SetSizeByID(ps, float64(k*(n+1)*dataset.ElemSize))
			spec := runtime.TaskSpec{Profile: PartialSumProfile(rows, cols, k)}
			if cfg.Materialize {
				xKey, cKey, psKey := keyBlock(b), KeyCenters(it), keyPartial(it, b)
				kk := k
				spec.Exec = func(s *runtime.Store) error {
					return execPartialSum(s, xKey, cKey, psKey, kk)
				}
			}
			wf.AddTask("partial_sum", spec,
				dag.Param{Data: blocks.ID(b), Dir: dag.In},
				dag.Param{Data: prevC, Dir: dag.In},
				dag.Param{Data: ps, Dir: dag.Out})
			mergeParams = append(mergeParams, dag.Param{Data: ps, Dir: dag.In})
		}
		nextC := wf.Datum(KeyCenters(it + 1))
		wf.SetSizeByID(nextC, centersBytes)
		mergeParams = append(mergeParams, dag.Param{Data: nextC, Dir: dag.Out})
		spec := runtime.TaskSpec{Profile: MergeProfile(g, n, k)}
		if cfg.Materialize {
			itCopy, kk, nn, gg := it, k, n, g
			spec.Exec = func(s *runtime.Store) error {
				return execMerge(s, itCopy, gg, kk, nn)
			}
		}
		wf.AddTask("merge", spec, mergeParams...)
		prevC = nextC
	}
	return wf, nil
}

// execPartialSum assigns each sample of the block to its nearest center
// and emits a (K × N+1) partial: per-cluster feature sums plus counts.
func execPartialSum(s *runtime.Store, xKey, cKey, psKey string, k int64) error {
	x, centers := s.MustGet(xKey), s.MustGet(cKey)
	n := x.Cols
	if centers.Rows != k || centers.Cols != n {
		return fmt.Errorf("kmeans: centers %dx%d, want %dx%d", centers.Rows, centers.Cols, k, n)
	}
	ps := dataset.NewBlock(dataset.BlockID{}, k, n+1)
	for r := int64(0); r < x.Rows; r++ {
		best, bestDist := int64(0), math.Inf(1)
		for c := int64(0); c < k; c++ {
			var d float64
			for j := int64(0); j < n; j++ {
				diff := x.At(r, j) - centers.At(c, j)
				d += diff * diff
			}
			if d < bestDist {
				best, bestDist = c, d
			}
		}
		for j := int64(0); j < n; j++ {
			ps.Set(best, j, ps.At(best, j)+x.At(r, j))
		}
		ps.Set(best, n, ps.At(best, n)+1)
	}
	s.Put(psKey, ps)
	return nil
}

// execMerge reduces the iteration's partials into the next centers. Empty
// clusters keep their previous center (dislib behaviour).
func execMerge(s *runtime.Store, it int, g, k, n int64) error {
	prev := s.MustGet(KeyCenters(it))
	next := dataset.NewBlock(dataset.BlockID{}, k, n)
	sums := dataset.NewBlock(dataset.BlockID{}, k, n+1)
	for b := int64(0); b < g; b++ {
		ps := s.MustGet(keyPartial(it, b))
		for i := range sums.Data {
			sums.Data[i] += ps.Data[i]
		}
	}
	for c := int64(0); c < k; c++ {
		count := sums.At(c, n)
		for j := int64(0); j < n; j++ {
			if count > 0 {
				next.Set(c, j, sums.At(c, j)/count)
			} else {
				next.Set(c, j, prev.At(c, j))
			}
		}
	}
	s.Put(KeyCenters(it+1), next)
	return nil
}

// Inertia computes the within-cluster sum of squares of the materialized
// blocks against the given centers — the quantity Lloyd iterations must
// not increase, used to verify convergence.
func Inertia(store *runtime.Store, cfg Config, centersKey string) (float64, error) {
	cfg = cfg.withDefaults()
	part, err := dataset.ByGrid(cfg.Dataset, cfg.Grid, 1)
	if err != nil {
		return 0, err
	}
	centers := store.Get(centersKey)
	if centers == nil {
		return 0, fmt.Errorf("kmeans: centers %q not found", centersKey)
	}
	var total float64
	for b := int64(0); b < part.GridRows; b++ {
		x := store.MustGet(keyBlock(b))
		for r := int64(0); r < x.Rows; r++ {
			best := math.Inf(1)
			for c := int64(0); c < centers.Rows; c++ {
				var d float64
				for j := int64(0); j < x.Cols; j++ {
					diff := x.At(r, j) - centers.At(c, j)
					d += diff * diff
				}
				if d < best {
					best = d
				}
			}
			total += best
		}
	}
	return total, nil
}

// PredictProfile returns the analytic profile of one predict task: the
// label-assignment pass over a block (distance computation without the
// update bookkeeping).
func PredictProfile(m, n, k int64) costmodel.Profile {
	p := PartialSumProfile(m, n, k)
	p.SerialOps /= 4 // no per-cluster accumulation, only argmin bookkeeping
	p.BytesOut = 8 * float64(m)
	return p
}

// BuildPredict appends label-assignment tasks for the fitted centers to a
// new workflow: one predict task per block, writing a labels vector (M×1)
// per block under KeyLabels. This is dislib's KMeans.predict counterpart.
func BuildPredict(cfg Config, centersKey string) (*runtime.Workflow, error) {
	cfg = cfg.withDefaults()
	part, err := dataset.ByGrid(cfg.Dataset, cfg.Grid, 1)
	if err != nil {
		return nil, fmt.Errorf("kmeans: %w", err)
	}
	wf := runtime.NewWorkflow("kmeans-predict")
	gen := cfg.Generator
	if gen == nil {
		gen = dataset.NewGenerator(42)
	}
	if cfg.Materialize && part.SizeBytes() > cfg.MaterializeBudget {
		return nil, fmt.Errorf("kmeans: %s exceeds materialization budget",
			dataset.FormatBytes(part.SizeBytes()))
	}
	centers := wf.Datum(centersKey)
	wf.SetSizeByID(centers, float64(cfg.Clusters*cfg.Dataset.Cols*dataset.ElemSize))
	// Blocks and labels interleave in ID order (X[0], labels[0], X[1],
	// ...), so each is a named datum rather than a range.
	for b := int64(0); b < part.GridRows; b++ {
		rows, cols, err := part.BlockShape(b, 0)
		if err != nil {
			return nil, err
		}
		xKey, lKey := keyBlock(b), KeyLabels(b)
		x := wf.Datum(xKey)
		if cfg.Materialize {
			blk := dataset.NewBlock(dataset.BlockID{Row: b}, rows, cols)
			gen.FillBlobs(blk, int(cfg.Clusters), 0.5)
			wf.SetInput(xKey, blk)
		} else {
			wf.SetSizeByID(x, float64(rows*cols*dataset.ElemSize))
		}
		lbl := wf.Datum(lKey)
		wf.SetSizeByID(lbl, float64(rows*dataset.ElemSize))
		spec := runtime.TaskSpec{Profile: PredictProfile(rows, cols, cfg.Clusters)}
		if cfg.Materialize {
			kk := cfg.Clusters
			spec.Exec = func(s *runtime.Store) error {
				return execPredict(s, xKey, centersKey, lKey, kk)
			}
		}
		wf.AddTask("predict", spec,
			dag.Param{Data: x, Dir: dag.In},
			dag.Param{Data: centers, Dir: dag.In},
			dag.Param{Data: lbl, Dir: dag.Out})
	}
	return wf, nil
}

// KeyLabels returns the datum name of block b's label vector.
func KeyLabels(b int64) string { return dag.IndexedName("labels", b) }

// execPredict assigns each sample its nearest-center index.
func execPredict(s *runtime.Store, xKey, cKey, lKey string, k int64) error {
	x, centers := s.MustGet(xKey), s.MustGet(cKey)
	labels := dataset.NewBlock(dataset.BlockID{}, x.Rows, 1)
	for r := int64(0); r < x.Rows; r++ {
		best, bestDist := int64(0), math.Inf(1)
		for c := int64(0); c < k; c++ {
			var d float64
			for j := int64(0); j < x.Cols; j++ {
				diff := x.At(r, j) - centers.At(c, j)
				d += diff * diff
			}
			if d < bestDist {
				best, bestDist = c, d
			}
		}
		labels.Set(r, 0, float64(best))
	}
	s.Put(lKey, labels)
	return nil
}
