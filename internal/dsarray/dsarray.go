// Package dsarray is the dislib-style programming layer of the paper's
// §3.5: distributed, block-partitioned arrays whose operations expand into
// tasks on the workflow runtime. Users compose array expressions; the
// runtime derives the DAG, and either backend executes it — the simulator
// with calibrated cost profiles, or the local backend with real float64
// kernels.
//
//	ctx := dsarray.New("pipeline", true /* materialize */)
//	a, _ := ctx.Random(ds, 4, 4, dataset.NewGenerator(1))
//	b, _ := ctx.Random(ds, 4, 4, dataset.NewGenerator(2))
//	c, _ := a.MatMul(b)          // g³ matmul_func + add tree
//	d, _ := c.Add(a)             // elementwise add_func tasks
//	res, _ := runtime.RunLocal(ctx.Workflow(), runtime.LocalConfig{})
//
// Operations follow the paper's task taxonomy: MatMul emits the
// compute-bound O(N³) kernel, Add/Scale/Transpose emit bandwidth-bound
// O(N²) kernels, and Sum reduces with a task tree — so every dsarray
// program exposes the same thread-level/task-level parallelism trade-offs
// the paper analyzes.
package dsarray

import (
	"fmt"

	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/dataset"
	"wfsim/internal/runtime"
)

// Context owns the workflow that array operations append tasks to.
type Context struct {
	wf          *runtime.Workflow
	materialize bool
	budget      int64
	counter     int
}

// New creates a context. With materialize set, input arrays carry real
// blocks and operations attach real kernels (local backend); otherwise the
// workflow is metadata-only (simulation at paper scale).
func New(name string, materialize bool) *Context {
	return &Context{
		wf:          runtime.NewWorkflow(name),
		materialize: materialize,
		budget:      512 << 20,
	}
}

// Workflow returns the underlying workflow for execution.
func (c *Context) Workflow() *runtime.Workflow { return c.wf }

// SetBudget caps total materialized bytes per array (default 512 MB).
func (c *Context) SetBudget(bytes int64) { c.budget = bytes }

func (c *Context) fresh(prefix string) string {
	c.counter++
	return fmt.Sprintf("%s#%d", prefix, c.counter)
}

// Array is a handle to a block-partitioned matrix within the context's
// workflow. Its blocks are workflow data; using an Array as an operand
// creates dependencies on the tasks that produced it.
type Array struct {
	ctx    *Context
	part   dataset.Partition
	blocks dag.Range // blocks.At(r, c) is block (r, c)'s datum ID
}

// Partition returns the array's grid layout.
func (a *Array) Partition() dataset.Partition { return a.part }

// Key returns the datum name of block (r, c), e.g. to fetch results from a
// LocalResult store.
func (a *Array) Key(r, c int64) string { return a.ctx.name(a.blocks.At(r, c)) }

func (c *Context) name(id int32) string { return c.wf.Graph.Data().Name(id) }

// newArray reserves the array's blocks as one ID grid, named
// prefix#n[r,c], and declares their sizes.
func (c *Context) newArray(part dataset.Partition, prefix string) (*Array, error) {
	a := &Array{ctx: c, part: part}
	a.blocks = c.wf.Graph.Data().Grid(c.fresh(prefix), part.GridRows, part.GridCols)
	for r := int64(0); r < part.GridRows; r++ {
		for col := int64(0); col < part.GridCols; col++ {
			rows, cols, err := part.BlockShape(r, col)
			if err != nil {
				return nil, err
			}
			c.wf.SetSizeByID(a.blocks.At(r, col), float64(rows*cols*dataset.ElemSize))
		}
	}
	return a, nil
}

// Random declares an input array filled by gen (materialized contexts
// allocate and fill real blocks).
func (c *Context) Random(d dataset.Dataset, k, l int64, gen *dataset.Generator) (*Array, error) {
	part, err := dataset.ByGrid(d, k, l)
	if err != nil {
		return nil, err
	}
	if c.materialize && part.SizeBytes() > c.budget {
		return nil, fmt.Errorf("dsarray: %s exceeds materialization budget %s",
			dataset.FormatBytes(part.SizeBytes()), dataset.FormatBytes(c.budget))
	}
	a, err := c.newArray(part, "in")
	if err != nil {
		return nil, err
	}
	if c.materialize {
		if gen == nil {
			gen = dataset.NewGenerator(42)
		}
		for r := int64(0); r < part.GridRows; r++ {
			for col := int64(0); col < part.GridCols; col++ {
				rows, cols, err := part.BlockShape(r, col)
				if err != nil {
					return nil, err
				}
				b := dataset.NewBlock(dataset.BlockID{Row: r, Col: col}, rows, cols)
				gen.Fill(b)
				c.wf.SetInput(a.Key(r, col), b)
			}
		}
	}
	return a, nil
}

func sameShape(a, b *Array) error {
	if a.part.GridRows != b.part.GridRows || a.part.GridCols != b.part.GridCols ||
		a.part.Rows != b.part.Rows || a.part.Cols != b.part.Cols {
		return fmt.Errorf("dsarray: shape mismatch %dx%d/%s vs %dx%d/%s",
			a.part.Rows, a.part.Cols, a.part.GridString(),
			b.part.Rows, b.part.Cols, b.part.GridString())
	}
	return nil
}

// Add returns a + b elementwise, one task per block.
func (a *Array) Add(b *Array) (*Array, error) {
	if err := sameShape(a, b); err != nil {
		return nil, err
	}
	out, err := a.ctx.newArray(a.part, "add")
	if err != nil {
		return nil, err
	}
	for r := int64(0); r < a.part.GridRows; r++ {
		for col := int64(0); col < a.part.GridCols; col++ {
			rows, cols, err := a.part.BlockShape(r, col)
			if err != nil {
				return nil, err
			}
			binaryTask(a.ctx.wf, a.ctx.materialize, "add_func", ElementwiseProfile(rows, cols, 2), execAdd,
				a.blocks.At(r, col), b.blocks.At(r, col), out.blocks.At(r, col))
		}
	}
	return out, nil
}

// Scale returns f·a, one task per block.
func (a *Array) Scale(f float64) (*Array, error) {
	out, err := a.ctx.newArray(a.part, "scale")
	if err != nil {
		return nil, err
	}
	for r := int64(0); r < a.part.GridRows; r++ {
		for col := int64(0); col < a.part.GridCols; col++ {
			rows, cols, err := a.part.BlockShape(r, col)
			if err != nil {
				return nil, err
			}
			spec := runtime.TaskSpec{Profile: ElementwiseProfile(rows, cols, 1)}
			if a.ctx.materialize {
				x, o, factor := a.Key(r, col), out.Key(r, col), f
				spec.Exec = func(s *runtime.Store) error {
					bx := s.MustGet(x)
					bo := dataset.NewBlock(dataset.BlockID{}, bx.Rows, bx.Cols)
					for i := range bo.Data {
						bo.Data[i] = bx.Data[i] * factor
					}
					s.Put(o, bo)
					return nil
				}
			}
			a.ctx.wf.AddTask("scale_func", spec,
				dag.Param{Data: a.blocks.At(r, col), Dir: dag.In},
				dag.Param{Data: out.blocks.At(r, col), Dir: dag.Out})
		}
	}
	return out, nil
}

// Transpose returns aᵀ: block (r,c) of the result is the transpose of
// block (c,r) of a. One task per output block.
func (a *Array) Transpose() (*Array, error) {
	tPart, err := dataset.ByBlock(
		dataset.Dataset{Name: a.part.Name + "T", Rows: a.part.Cols, Cols: a.part.Rows},
		a.part.BlockCols, a.part.BlockRows)
	if err != nil {
		return nil, err
	}
	out, err := a.ctx.newArray(tPart, "t")
	if err != nil {
		return nil, err
	}
	for r := int64(0); r < tPart.GridRows; r++ {
		for col := int64(0); col < tPart.GridCols; col++ {
			rows, cols, err := tPart.BlockShape(r, col)
			if err != nil {
				return nil, err
			}
			spec := runtime.TaskSpec{Profile: ElementwiseProfile(rows, cols, 1)}
			if a.ctx.materialize {
				src, dst := a.Key(col, r), out.Key(r, col)
				spec.Exec = func(s *runtime.Store) error {
					bx := s.MustGet(src)
					bo := dataset.NewBlock(dataset.BlockID{}, bx.Cols, bx.Rows)
					for i := int64(0); i < bx.Rows; i++ {
						for j := int64(0); j < bx.Cols; j++ {
							bo.Set(j, i, bx.At(i, j))
						}
					}
					s.Put(dst, bo)
					return nil
				}
			}
			a.ctx.wf.AddTask("transpose_func", spec,
				dag.Param{Data: a.blocks.At(col, r), Dir: dag.In},
				dag.Param{Data: out.blocks.At(r, col), Dir: dag.Out})
		}
	}
	return out, nil
}

// MatMul returns a × b using the dislib scheme: one O(N³) matmul_func per
// (i, j, k) block triple plus a binary add_func reduction tree per output
// block — the exact task structure of the paper's Figure 6b, emitted by
// Product like the Matmul workload's. Partials are named p#n, inner
// sums s#n.
func (a *Array) MatMul(b *Array) (*Array, error) {
	if a.part.Cols != b.part.Rows || a.part.GridCols != b.part.GridRows {
		return nil, fmt.Errorf("dsarray: matmul inner dims %d/%d vs %d/%d",
			a.part.Cols, a.part.GridCols, b.part.Rows, b.part.GridRows)
	}
	outPart, err := dataset.ByBlock(
		dataset.Dataset{Name: "mm", Rows: a.part.Rows, Cols: b.part.Cols},
		a.part.BlockRows, b.part.BlockCols)
	if err != nil {
		return nil, err
	}
	c := a.ctx
	out, err := c.newArray(outPart, "mm")
	if err != nil {
		return nil, err
	}
	inner := a.part.GridCols
	p := NewProduct(c.wf, MatmulProfile(a.part.BlockRows, a.part.BlockCols, b.part.BlockCols), c.materialize)
	for r := int64(0); r < outPart.GridRows; r++ {
		for col := int64(0); col < outPart.GridCols; col++ {
			rows, cols, err := outPart.BlockShape(r, col)
			if err != nil {
				return nil, err
			}
			dst := out.blocks.At(r, col)
			p.Block(rows, cols, inner,
				func(k int64) (int32, int32) { return a.blocks.At(r, k), b.blocks.At(k, col) },
				func(int64) int32 {
					if inner == 1 {
						return dst
					}
					return c.wf.Datum(c.fresh("p"))
				},
				func(_, _ int, last bool) int32 {
					if last {
						return dst
					}
					return c.wf.Datum(c.fresh("s"))
				})
		}
	}
	return out, nil
}

// Sum reduces the whole array to a scalar (stored under the returned key):
// one partial-sum task per block, then a serial combine task.
func (a *Array) Sum() (string, error) {
	var partials []int32
	for r := int64(0); r < a.part.GridRows; r++ {
		for col := int64(0); col < a.part.GridCols; col++ {
			rows, cols, err := a.part.BlockShape(r, col)
			if err != nil {
				return "", err
			}
			p := a.ctx.wf.Datum(a.ctx.fresh("psum"))
			a.ctx.wf.SetSizeByID(p, dataset.ElemSize)
			prof := ElementwiseProfile(rows, cols, 1)
			prof.BytesOut = dataset.ElemSize
			spec := runtime.TaskSpec{Profile: prof}
			if a.ctx.materialize {
				x, o := a.Key(r, col), a.ctx.name(p)
				spec.Exec = func(s *runtime.Store) error {
					bx := s.MustGet(x)
					bo := dataset.NewBlock(dataset.BlockID{}, 1, 1)
					for _, v := range bx.Data {
						bo.Data[0] += v
					}
					s.Put(o, bo)
					return nil
				}
			}
			a.ctx.wf.AddTask("block_sum", spec,
				dag.Param{Data: a.blocks.At(r, col), Dir: dag.In},
				dag.Param{Data: p, Dir: dag.Out})
			partials = append(partials, p)
		}
	}
	outKey := a.ctx.fresh("total")
	out := a.ctx.wf.Datum(outKey)
	a.ctx.wf.SetSizeByID(out, dataset.ElemSize)
	params := make([]dag.Param, 0, len(partials)+1)
	for _, p := range partials {
		params = append(params, dag.Param{Data: p, Dir: dag.In})
	}
	params = append(params, dag.Param{Data: out, Dir: dag.Out})
	spec := runtime.TaskSpec{Profile: costmodel.Profile{
		Kernel:    costmodel.KernelGeneric,
		SerialOps: float64(len(partials)) * 50,
	}}
	if a.ctx.materialize {
		ps, o := make([]string, len(partials)), outKey
		for i, p := range partials {
			ps[i] = a.ctx.name(p)
		}
		spec.Exec = func(s *runtime.Store) error {
			bo := dataset.NewBlock(dataset.BlockID{}, 1, 1)
			for _, p := range ps {
				bo.Data[0] += s.MustGet(p).Data[0]
			}
			s.Put(o, bo)
			return nil
		}
	}
	a.ctx.wf.AddTask("combine_sum", spec, params...)
	return outKey, nil
}
