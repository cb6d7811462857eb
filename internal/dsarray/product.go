package dsarray

import (
	"fmt"

	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/dataset"
	"wfsim/internal/runtime"
)

// MatmulProfile is the matmul_func profile of an (m×k)·(k×n) block
// product: O(m·k·n) fully parallel user code (§4.4.4) whose two input
// blocks and one output block are all resident — "Matmul requires memory
// equal to three times the block size" (§5.3).
func MatmulProfile(m, k, n int64) costmodel.Profile {
	out := float64(m * n * dataset.ElemSize)
	return costmodel.Profile{
		Kernel:         costmodel.KernelMatmul,
		ParallelOps:    2 * float64(m) * float64(k) * float64(n),
		Threads:        float64(m) * float64(n),
		BytesIn:        float64((m*k + k*n) * dataset.ElemSize),
		BytesOut:       out,
		DeviceMemBytes: 3 * out,
		HostMemBytes:   3 * out,
	}
}

// ElementwiseProfile is the bandwidth-bound O(rows·cols) profile of a
// task combining inputs blocks of one shape into one — the add_func class
// of the paper's Figure 8, shared by Add, Scale, Transpose and the block
// product's reduction tree.
func ElementwiseProfile(rows, cols int64, inputs int) costmodel.Profile {
	n := float64(rows * cols)
	bytes := n * dataset.ElemSize
	return costmodel.Profile{
		Kernel:      costmodel.KernelAdd,
		ParallelOps: n,
		Threads:     n,
		BytesIn:     float64(inputs) * bytes,
		BytesOut:    bytes,
		// inputs + output resident on device.
		DeviceMemBytes: float64(inputs+1) * bytes,
		HostMemBytes:   float64(inputs+1) * bytes,
	}
}

// Product emits dislib block products (Figure 6b) into one workflow. It is
// the one builder of that task structure: Array.MatMul and the paper's
// Matmul workload both call Block once per output block.
type Product struct {
	wf       *runtime.Workflow
	mm       costmodel.Profile
	real     bool
	partials []int32 // scratch reused across blocks
}

// NewProduct returns an emitter whose matmul_func tasks carry profile mm;
// with real set, tasks run float64 kernels on the local backend.
func NewProduct(wf *runtime.Workflow, mm costmodel.Profile, real bool) *Product {
	return &Product{wf: wf, mm: mm, real: real}
}

// Block emits the product of one rows×cols output block over inner block
// pairs: one matmul_func per k reading operands(k) into partial(k), then
// the binary add_func tree pairing adjacent partials round by round, an
// odd one carried to the next round. Pair i of round r writes
// sum(r, i, last); last marks the final pair, which writes the output
// block. A single partial is the output block itself, so partial(0) must
// return it when inner is 1. Every datum written is sized to the block.
//
// The callbacks only choose datum IDs, so each caller keeps its own names
// and ID order; they must not retain anything per task.
func (p *Product) Block(rows, cols, inner int64, operands func(k int64) (a, b int32),
	partial func(k int64) int32, sum func(round, i int, last bool) int32) {
	add := ElementwiseProfile(rows, cols, 2)
	bytes := float64(rows * cols * dataset.ElemSize)
	ps := p.partials[:0]
	for k := int64(0); k < inner; k++ {
		a, b := operands(k)
		out := partial(k)
		p.wf.SetSizeByID(out, bytes)
		binaryTask(p.wf, p.real, "matmul_func", p.mm, execMatmul, a, b, out)
		ps = append(ps, out)
	}
	for round := 0; len(ps) > 1; round++ {
		// Pair i lands in ps[i/2], which its inputs no longer need.
		n := 0
		for i := 0; i < len(ps); i += 2 {
			if i+1 < len(ps) {
				out := sum(round, n, len(ps) == 2)
				p.wf.SetSizeByID(out, bytes)
				binaryTask(p.wf, p.real, "add_func", add, execAdd, ps[i], ps[i+1], out)
				ps[n] = out
			} else {
				ps[n] = ps[i]
			}
			n++
		}
		ps = ps[:n]
	}
	p.partials = ps
}

// binaryTask adds the task name reading x and y and writing out; with real
// set it runs kernel on their keys.
func binaryTask(wf *runtime.Workflow, real bool, name string, prof costmodel.Profile,
	kernel func(s *runtime.Store, x, y, out string) error, x, y, out int32) {
	spec := runtime.TaskSpec{Profile: prof}
	if real {
		key := wf.Graph.Data().Name
		xk, yk, ok := key(x), key(y), key(out)
		spec.Exec = func(s *runtime.Store) error { return kernel(s, xk, yk, ok) }
	}
	wf.AddTask(name, spec,
		dag.Param{Data: x, Dir: dag.In},
		dag.Param{Data: y, Dir: dag.In},
		dag.Param{Data: out, Dir: dag.Out})
}

// execMatmul computes out = a × b.
func execMatmul(s *runtime.Store, aKey, bKey, outKey string) error {
	a, b := s.MustGet(aKey), s.MustGet(bKey)
	if a.Cols != b.Rows {
		return fmt.Errorf("matmul: inner dims %d vs %d", a.Cols, b.Rows)
	}
	out := dataset.NewBlock(dataset.BlockID{}, a.Rows, b.Cols)
	MulInto(out, a, b)
	s.Put(outKey, out)
	return nil
}

// MulInto accumulates a×b into out with a cache-friendly ikj loop.
func MulInto(out, a, b *dataset.Block) {
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
