package matmul

import (
	"fmt"
	"slices"
	"testing"

	"wfsim/internal/costmodel"
	"wfsim/internal/dataset"
	"wfsim/internal/dsarray"
	"wfsim/internal/runtime"
)

func TestDAGShapeDislib(t *testing.T) {
	// Figure 6b: grid 4x4 — 64 matmul_func (g³) and 48 add_func
	// (g²·(g-1)), wide and shallow.
	wf, err := Build(Config{Dataset: dataset.MatmulSmall, Grid: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := wf.Graph.CountByName()
	if counts["matmul_func"] != 64 {
		t.Fatalf("matmul_func = %d, want 64", counts["matmul_func"])
	}
	if counts["add_func"] != 48 {
		t.Fatalf("add_func = %d, want 48", counts["add_func"])
	}
	if w := wf.Graph.MaxWidth(); w != 64 {
		t.Fatalf("width = %d, want 64", w)
	}
	// 1 matmul level + ceil(log2(4)) = 2 add levels.
	if h := wf.Graph.MaxHeight(); h != 3 {
		t.Fatalf("height = %d, want 3", h)
	}
	if err := wf.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMatchesDsarrayMatMul pins the single dislib product: the Matmul
// workload and a dsarray MatMul program over the same square grid emit
// the same tasks in the same order, with the same dependencies, profiles
// and written-datum sizes. On the ragged 100×100 grid 3 (blocks of 34, 34
// and 32 rows) the edge blocks' partials, sums and add_func ops shrink
// with the block, in both.
func TestMatchesDsarrayMatMul(t *testing.T) {
	for _, tc := range []struct{ n, g int64 }{{4800, 3}, {4800, 4}, {100, 3}} {
		ds := dataset.Dataset{Name: "sq", Rows: tc.n, Cols: tc.n}
		g := tc.g
		t.Run(fmt.Sprintf("%dx%d/g%d", tc.n, tc.n, g), func(t *testing.T) {
			wf, err := Build(Config{Dataset: ds, Grid: g})
			if err != nil {
				t.Fatal(err)
			}
			ctx := dsarray.New("mm", false)
			a, err := ctx.Random(ds, g, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ctx.Random(ds, g, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.MatMul(b); err != nil {
				t.Fatal(err)
			}
			want, got := wf.Graph, ctx.Workflow().Graph
			if want.Len() != got.Len() {
				t.Fatalf("%d tasks, dsarray %d", want.Len(), got.Len())
			}
			for id := 0; id < want.Len(); id++ {
				if want.Name(id) != got.Name(id) {
					t.Fatalf("task %d: %s, dsarray %s", id, want.Name(id), got.Name(id))
				}
				if wd, gd := want.Deps(id), got.Deps(id); !slices.Equal(wd, gd) {
					t.Fatalf("task %d deps %v, dsarray %v", id, wd, gd)
				}
				if wp, gp := wf.SpecByID(id).Profile, ctx.Workflow().SpecByID(id).Profile; wp != gp {
					t.Fatalf("task %d %s profile %+v, dsarray %+v", id, want.Name(id), wp, gp)
				}
				wOut, gOut := want.DataIDs(id)[2], got.DataIDs(id)[2]
				if ws, gs := wf.SizeByID(wOut), ctx.Workflow().SizeByID(gOut); ws != gs {
					t.Fatalf("task %d writes %v bytes, dsarray %v", id, ws, gs)
				}
			}
		})
	}
}

func TestDAGShapeSingleBlock(t *testing.T) {
	wf, err := Build(Config{Dataset: dataset.MatmulSmall, Grid: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := wf.Graph.CountByName()
	if counts["matmul_func"] != 1 || counts["add_func"] != 0 {
		t.Fatalf("counts = %v, want 1 matmul, 0 add", counts)
	}
}

func TestDAGShapeFMA(t *testing.T) {
	// FMA: g³ fma tasks + g² init tasks; each output chain serializes in
	// k, so height = g + 1.
	wf, err := Build(Config{Dataset: dataset.MatmulSmall, Grid: 4, Variant: FMA})
	if err != nil {
		t.Fatal(err)
	}
	counts := wf.Graph.CountByName()
	if counts["fma_func"] != 64 {
		t.Fatalf("fma_func = %d, want 64", counts["fma_func"])
	}
	if counts["zero_func"] != 16 {
		t.Fatalf("zero_func = %d, want 16", counts["zero_func"])
	}
	if h := wf.Graph.MaxHeight(); h != 5 {
		t.Fatalf("height = %d, want 5 (init + 4 chained FMAs)", h)
	}
}

func TestFMARaggedAccumulatorSizes(t *testing.T) {
	// 100×100 over a 3×3 grid: blocks of 34, 34 and 32 rows. Each
	// accumulator is sized to its block, as zero_func materializes it.
	wf, err := Build(Config{
		Dataset: dataset.Dataset{Name: "ragged", Rows: 100, Cols: 100},
		Grid:    3, Variant: FMA,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		r, c int64
		want float64
	}{{0, 0, 34 * 34 * dataset.ElemSize}, {0, 2, 34 * 32 * dataset.ElemSize}, {2, 2, 8192}} {
		if got := wf.Size(KeyC(tc.r, tc.c)); got != tc.want {
			t.Errorf("C[%d,%d] = %v bytes, want %v", tc.r, tc.c, got, tc.want)
		}
	}
}

func TestProfilesMatchComplexities(t *testing.T) {
	mm, add := Profiles(1000)
	if mm.ParallelOps != 2e9 {
		t.Fatalf("matmul ops = %v, want 2N³", mm.ParallelOps)
	}
	if add.ParallelOps != 1e6 {
		t.Fatalf("add ops = %v, want N²", add.ParallelOps)
	}
	if mm.SerialOps != 0 || add.SerialOps != 0 {
		t.Fatal("matmul tasks are fully parallel: serial ops must be 0")
	}
	if mm.DeviceMemBytes != 3*8e6 {
		t.Fatalf("device mem = %v, want 3 block sizes (§5.3)", mm.DeviceMemBytes)
	}
}

func TestGPUOOMAtMaxBlock(t *testing.T) {
	// §5.3: the 8 GB dataset at grid 1x1 needs 3×8 GB = 24 GB on a 12 GB
	// GPU — OOM. CPU execution still fits (128 GB RAM).
	wf, err := Build(Config{Dataset: dataset.MatmulSmall, Grid: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = runtime.RunSim(wf, runtime.SimConfig{Device: costmodel.GPU})
	if !runtime.ErrOOM(err) {
		t.Fatalf("err = %v, want GPU OOM", err)
	}
	if _, err := runtime.RunSim(wf, runtime.SimConfig{Device: costmodel.CPU}); err != nil {
		t.Fatalf("CPU run: %v", err)
	}
	// Grid 2x2 (2048 MB blocks, 6 GB footprint) fits the GPU.
	wf2, err := Build(Config{Dataset: dataset.MatmulSmall, Grid: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.RunSim(wf2, runtime.SimConfig{Device: costmodel.GPU}); err != nil {
		t.Fatalf("2x2 GPU run: %v", err)
	}
}

func TestRealExecutionMatchesReference(t *testing.T) {
	cfg := Config{
		Dataset:     dataset.Dataset{Name: "small", Rows: 96, Cols: 96},
		Grid:        3, // exercises the odd-partial reduction tree
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
	if err := Reference(wf, res.Store, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFMAMatchesDislib(t *testing.T) {
	// Both variants must compute the same product.
	ds := dataset.Dataset{Name: "small", Rows: 64, Cols: 64}
	run := func(v Variant) *runtime.Store {
		wf, err := Build(Config{Dataset: ds, Grid: 2, Variant: v, Materialize: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runtime.RunLocal(wf, runtime.LocalConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Store
	}
	a, b := run(Dislib), run(FMA)
	for r := int64(0); r < 2; r++ {
		for c := int64(0); c < 2; c++ {
			x, y := a.MustGet(KeyC(r, c)), b.MustGet(KeyC(r, c))
			for i := range x.Data {
				diff := x.Data[i] - y.Data[i]
				if diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("C[%d,%d][%d]: dislib %v vs fma %v", r, c, i, x.Data[i], y.Data[i])
				}
			}
		}
	}
}

func TestRaggedRealExecution(t *testing.T) {
	// 100x100 over a 3x3 grid: ragged 34/33-row blocks must still produce
	// a correct product.
	cfg := Config{
		Dataset:     dataset.Dataset{Name: "ragged", Rows: 100, Cols: 100},
		Grid:        3,
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
	if err := Reference(wf, res.Store, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Config{Dataset: dataset.Dataset{Name: "rect", Rows: 10, Cols: 20}, Grid: 2}); err == nil {
		t.Fatal("non-square dataset accepted")
	}
	if _, err := Build(Config{Dataset: dataset.MatmulSmall, Grid: 2, Materialize: true}); err == nil {
		t.Fatal("paper-scale materialization accepted")
	}
}

func TestSimAtPaperScale(t *testing.T) {
	// The 8 GB dataset at grid 8x8 simulates without materializing 8 GB.
	wf, err := Build(Config{Dataset: dataset.MatmulSmall, Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := wf.Graph.Len(); got != 512+448 {
		t.Fatalf("tasks = %d, want 960", got)
	}
	res, err := runtime.RunSim(wf, runtime.SimConfig{Device: costmodel.GPU})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
}
