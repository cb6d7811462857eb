// Package matmul implements the paper's fully parallelizable workload:
// dislib-style distributed blocked matrix multiplication (§4.4.4).
//
// C = A × B over a g×g grid produces two task types:
//
//   - matmul_func — one per (i, j, k) triple (g³ tasks): the O(N³) block
//     product A[i,k]·B[k,j]. Fully parallel user code, high arithmetic
//     intensity, the workload where GPUs shine (Figure 8 left).
//   - add_func — accumulates the g partial products of each output block
//     with a binary reduction tree (g²·(g-1) tasks): O(N²), fully parallel
//     but bandwidth-bound, the workload where CPU-GPU communication
//     dominates and GPUs lose (Figure 8 right).
//
// The resulting DAG is wide and shallow — high task-level parallelism
// (Figure 6b). A second variant reproduces the COMPSs Fused-Multiply-Add
// implementation (Figure 12): fma_func accumulates C[i,j] += A[i,k]·B[k,j]
// in place, yielding g³ tasks in g sequential waves with no add tasks.
package matmul

import (
	"fmt"

	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/dataset"
	"wfsim/internal/runtime"
)

// Variant selects the implementation.
type Variant int

const (
	// Dislib is the dislib implementation: matmul_func + add_func tree.
	Dislib Variant = iota
	// FMA is the COMPSs fused-multiply-add implementation (Figure 12).
	FMA
)

func (v Variant) String() string {
	if v == FMA {
		return "matmul-fma"
	}
	return "matmul"
}

// Config parameterizes a matmul workflow.
type Config struct {
	// Dataset is the square input matrix (both A and B have this shape).
	Dataset dataset.Dataset
	// Grid is g: the dataset is partitioned g×g.
	Grid int64
	// Variant selects dislib or FMA.
	Variant Variant
	// Materialize attaches real input blocks and kernels; requires the
	// dataset to fit MaterializeBudget.
	Materialize bool
	// Generator fills materialized inputs (nil: uniform seed 42).
	Generator *dataset.Generator
	// MaterializeBudget caps real allocation (default 256 MB).
	MaterializeBudget int64
}

// Profiles returns the analytic cost profiles for the two dislib task
// types at block order n (square N×N blocks), matching §4.4.4:
// matmul_func is O(N³), add_func is O(N).
func Profiles(n int64) (mm, add costmodel.Profile) {
	N := float64(n)
	blockBytes := 8 * N * N
	mm = costmodel.Profile{
		Kernel:      costmodel.KernelMatmul,
		SerialOps:   0, // fully parallel user code (§4.4.4)
		ParallelOps: 2 * N * N * N,
		Threads:     N * N,
		BytesIn:     2 * blockBytes,
		BytesOut:    blockBytes,
		// "Matmul requires memory equal to three times the block size
		// (each task has two block inputs and one block output)" — §5.3.
		DeviceMemBytes: 3 * blockBytes,
		HostMemBytes:   3 * blockBytes,
	}
	add = mm
	add.Kernel = costmodel.KernelAdd
	add.ParallelOps = N * N
	return mm, add
}

// FMAProfile returns the profile of the fused fma_func task at block
// order n: same O(N³) class as matmul_func with three I/O blocks.
func FMAProfile(n int64) costmodel.Profile {
	mm, _ := Profiles(n)
	mm.Kernel = costmodel.KernelFMA
	mm.BytesIn = 3 * 8 * float64(n) * float64(n) // A, B and the C accumulator
	return mm
}

// keyA, keyB, keyC name the data blocks. A and B interleave in ID order
// (A[0,0], B[0,0], A[0,1], ...) and C follows its partial products, so
// these are named datums; each output's partial products P[r,c,k] are one
// ID range, named by the interner on demand in the same spelling.
func keyA(r, c int64) string { return dag.IndexedName("A", r, c) }
func keyB(r, c int64) string { return dag.IndexedName("B", r, c) }

// KeyC returns the datum name of output block (r, c): the key examples and
// tests read results from.
func KeyC(r, c int64) string { return dag.IndexedName("C", r, c) }

// Build constructs the workflow.
func Build(cfg Config) (*runtime.Workflow, error) {
	if cfg.Dataset.Rows != cfg.Dataset.Cols {
		return nil, fmt.Errorf("matmul: dataset must be square, got %dx%d",
			cfg.Dataset.Rows, cfg.Dataset.Cols)
	}
	part, err := dataset.ByGrid(cfg.Dataset, cfg.Grid, cfg.Grid)
	if err != nil {
		return nil, fmt.Errorf("matmul: %w", err)
	}
	g := part.GridRows
	if part.GridCols != g {
		return nil, fmt.Errorf("matmul: non-square effective grid %s", part.GridString())
	}

	wf := runtime.NewWorkflow(cfg.Variant.String())
	// Dislib: g³ matmul_funcs + ~g³ add-tree reductions, 3 params each,
	// over 2g² inputs + ~2g³ intermediates. FMA: g² zero_funcs + g³
	// 3-param fma_funcs over 2g²+g² datums. The dislib figures slightly
	// overshoot for g=1 edge shapes; Hint only needs to be close.
	gi := int(g)
	switch cfg.Variant {
	case FMA:
		wf.Hint(gi*gi*(gi+1), 3*gi*gi, gi*gi+3*gi*gi*gi)
	default:
		wf.Hint(2*gi*gi*gi, 2*gi*gi*(gi+1), 6*gi*gi*gi)
	}
	gen := cfg.Generator
	if gen == nil {
		gen = dataset.NewGenerator(42)
	}
	budget := cfg.MaterializeBudget
	if budget == 0 {
		budget = 256 << 20
	}
	if cfg.Materialize && 2*part.SizeBytes() > budget {
		return nil, fmt.Errorf("matmul: 2×%s inputs exceed materialization budget %s",
			dataset.FormatBytes(part.SizeBytes()), dataset.FormatBytes(budget))
	}

	// Declare input blocks (A and B share the partition geometry).
	in := inputs{a: make([]int32, g*g), b: make([]int32, g*g), g: g}
	for r := int64(0); r < g; r++ {
		for c := int64(0); c < g; c++ {
			rows, cols, err := part.BlockShape(r, c)
			if err != nil {
				return nil, err
			}
			for _, mk := range []struct {
				key string
				ids []int32
				blk dataset.BlockID
			}{
				{keyA(r, c), in.a, dataset.BlockID{Row: r, Col: c}},
				{keyB(r, c), in.b, dataset.BlockID{Row: r + g, Col: c}},
			} {
				id := wf.Datum(mk.key)
				mk.ids[r*g+c] = id
				if cfg.Materialize {
					blk := dataset.NewBlock(mk.blk, rows, cols)
					gen.Fill(blk)
					wf.SetInput(mk.key, blk)
				} else {
					wf.SetSizeByID(id, float64(rows*cols*dataset.ElemSize))
				}
			}
		}
	}

	switch cfg.Variant {
	case Dislib:
		buildDislib(wf, part, in, cfg.Materialize)
	case FMA:
		buildFMA(wf, part, in, cfg.Materialize)
	default:
		return nil, fmt.Errorf("matmul: unknown variant %d", cfg.Variant)
	}
	return wf, nil
}

// inputs holds the datum IDs of the input blocks, row-major.
type inputs struct {
	a, b []int32
	g    int64
}

func (in inputs) A(r, c int64) int32 { return in.a[r*in.g+c] }
func (in inputs) B(r, c int64) int32 { return in.b[r*in.g+c] }

// buildDislib emits g³ matmul_func tasks plus per-output binary add trees.
func buildDislib(wf *runtime.Workflow, part dataset.Partition, in inputs, real bool) {
	g := part.GridRows
	mmProf, addProf := Profiles(part.BlockRows)
	blockBytes := float64(part.BlockRows * part.BlockCols * dataset.ElemSize)
	name := wf.Graph.Data().Name
	partials := make([]int32, 0, g)
	var next []int32
	for r := int64(0); r < g; r++ {
		for c := int64(0); c < g; c++ {
			// Partial products: P[r,c,0..g), or C[r,c] itself when a
			// single product is the output.
			var products dag.Range
			if g > 1 {
				products = wf.Graph.Data().Range("P", g, r, c)
			}
			partials = partials[:0]
			for k := int64(0); k < g; k++ {
				var out int32
				if g == 1 {
					out = wf.Datum(KeyC(r, c))
				} else {
					out = products.ID(k)
				}
				wf.SetSizeByID(out, blockBytes)
				spec := runtime.TaskSpec{Profile: mmProf}
				if real {
					a, b, outKey := keyA(r, k), keyB(k, c), name(out)
					spec.Exec = func(s *runtime.Store) error {
						return execMatmul(s, a, b, outKey)
					}
				}
				wf.AddTask("matmul_func", spec,
					dag.Param{Data: in.A(r, k), Dir: dag.In},
					dag.Param{Data: in.B(k, c), Dir: dag.In},
					dag.Param{Data: out, Dir: dag.Out})
				partials = append(partials, out)
			}
			// Binary reduction tree over the g partials.
			round := 0
			for len(partials) > 1 {
				next = next[:0]
				for i := 0; i < len(partials); i += 2 {
					if i+1 == len(partials) {
						next = append(next, partials[i])
						continue
					}
					var out int32
					if len(partials) == 2 {
						out = wf.Datum(KeyC(r, c))
					} else {
						out = wf.Datum(fmt.Sprintf("S[%d,%d]r%d.%d", r, c, round, i/2))
					}
					wf.SetSizeByID(out, blockBytes)
					spec := runtime.TaskSpec{Profile: addProf}
					if real {
						x, y, outKey := name(partials[i]), name(partials[i+1]), name(out)
						spec.Exec = func(s *runtime.Store) error {
							return execAdd(s, x, y, outKey)
						}
					}
					wf.AddTask("add_func", spec,
						dag.Param{Data: partials[i], Dir: dag.In},
						dag.Param{Data: partials[i+1], Dir: dag.In},
						dag.Param{Data: out, Dir: dag.Out})
					next = append(next, out)
				}
				partials, next = next, partials
				round++
			}
		}
	}
}

// buildFMA emits g³ fused tasks: C[i,j] += A[i,k]·B[k,j], serialized in k
// per output block by the INOUT accumulator dependency.
func buildFMA(wf *runtime.Workflow, part dataset.Partition, in inputs, real bool) {
	g := part.GridRows
	prof := FMAProfile(part.BlockRows)
	for r := int64(0); r < g; r++ {
		for c := int64(0); c < g; c++ {
			out := wf.Datum(KeyC(r, c))
			wf.SetSizeByID(out, float64(part.BlockRows*part.BlockCols*dataset.ElemSize))
			// Zero-init accumulator task (serial, negligible cost).
			initSpec := runtime.TaskSpec{Profile: costmodel.Profile{
				Kernel: costmodel.KernelGeneric, SerialOps: 1000,
			}}
			if real {
				rr, cc := r, c
				initSpec.Exec = func(s *runtime.Store) error {
					rows, cols, err := part.BlockShape(rr, cc)
					if err != nil {
						return err
					}
					s.Put(KeyC(rr, cc), dataset.NewBlock(dataset.BlockID{Row: rr, Col: cc}, rows, cols))
					return nil
				}
			}
			wf.AddTask("zero_func", initSpec, dag.Param{Data: out, Dir: dag.Out})
			for k := int64(0); k < g; k++ {
				spec := runtime.TaskSpec{Profile: prof}
				if real {
					a, b, outKey := keyA(r, k), keyB(k, c), KeyC(r, c)
					spec.Exec = func(s *runtime.Store) error {
						return execFMA(s, a, b, outKey)
					}
				}
				wf.AddTask("fma_func", spec,
					dag.Param{Data: in.A(r, k), Dir: dag.In},
					dag.Param{Data: in.B(k, c), Dir: dag.In},
					dag.Param{Data: out, Dir: dag.InOut})
			}
		}
	}
}

// execMatmul computes out = a × b with a cache-friendly ikj loop.
func execMatmul(s *runtime.Store, aKey, bKey, outKey string) error {
	a, b := s.MustGet(aKey), s.MustGet(bKey)
	if a.Cols != b.Rows {
		return fmt.Errorf("matmul: inner dims %d vs %d", a.Cols, b.Rows)
	}
	out := dataset.NewBlock(dataset.BlockID{}, a.Rows, b.Cols)
	mulInto(out, a, b)
	s.Put(outKey, out)
	return nil
}

// execFMA computes out += a × b in place.
func execFMA(s *runtime.Store, aKey, bKey, outKey string) error {
	a, b, out := s.MustGet(aKey), s.MustGet(bKey), s.MustGet(outKey)
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		return fmt.Errorf("fma: shape mismatch")
	}
	mulInto(out, a, b)
	return nil
}

// mulInto accumulates a×b into out.
func mulInto(out, a, b *dataset.Block) {
	for i := int64(0); i < a.Rows; i++ {
		for k := int64(0); k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			outRow := out.Data[i*out.Cols : (i+1)*out.Cols]
			bRow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j := range bRow {
				outRow[j] += aik * bRow[j]
			}
		}
	}
}

// execAdd computes out = x + y elementwise.
func execAdd(s *runtime.Store, xKey, yKey, outKey string) error {
	x, y := s.MustGet(xKey), s.MustGet(yKey)
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return fmt.Errorf("add: shape mismatch %dx%d vs %dx%d", x.Rows, x.Cols, y.Rows, y.Cols)
	}
	out := dataset.NewBlock(dataset.BlockID{}, x.Rows, x.Cols)
	for i := range out.Data {
		out.Data[i] = x.Data[i] + y.Data[i]
	}
	s.Put(outKey, out)
	return nil
}

// Reference computes the full product of the materialized inputs naively,
// for verification: C_ref = A × B assembled from the workflow's input
// blocks.
func Reference(wf *runtime.Workflow, store *runtime.Store, cfg Config) error {
	part, err := dataset.ByGrid(cfg.Dataset, cfg.Grid, cfg.Grid)
	if err != nil {
		return err
	}
	g := part.GridRows
	for r := int64(0); r < g; r++ {
		for c := int64(0); c < g; c++ {
			rows, _, err := part.BlockShape(r, c)
			if err != nil {
				return err
			}
			_, cols, err := part.BlockShape(r, c)
			if err != nil {
				return err
			}
			want := dataset.NewBlock(dataset.BlockID{}, rows, cols)
			for k := int64(0); k < g; k++ {
				a := store.MustGet(keyA(r, k))
				b := store.MustGet(keyB(k, c))
				mulInto(want, a, b)
			}
			got := store.MustGet(KeyC(r, c))
			if got.Rows != want.Rows || got.Cols != want.Cols {
				return fmt.Errorf("C[%d,%d]: shape %dx%d, want %dx%d",
					r, c, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i := range want.Data {
				diff := got.Data[i] - want.Data[i]
				if diff > 1e-6 || diff < -1e-6 {
					return fmt.Errorf("C[%d,%d][%d] = %v, want %v", r, c, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
	return nil
}
