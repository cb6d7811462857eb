package wfsim_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"wfsim/internal/apps/kmeans"
	"wfsim/internal/apps/linreg"
	"wfsim/internal/apps/matmul"
	"wfsim/internal/dag"
	"wfsim/internal/dataset"
	"wfsim/internal/dsarray"
	"wfsim/internal/runtime"
	"wfsim/internal/workload"
)

// TestGoldenDatumNames pins the datum name space of every builder at small
// grids: each datum's name by ID, the input listing and the validation
// text. testdata/golden_datum_names.txt was captured when builders still
// named every datum by string, so it proves that ranges reserved by index,
// whose names are rendered on demand, spell and number every datum as the
// string-named builders did. Every name must also look up to its own ID.
func TestGoldenDatumNames(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_datum_names.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, c := range datumNameCases(t) {
		fmt.Fprintf(&got, "== %s\n", c.name)
		data := c.wf.Graph.Data()
		for id := int32(0); int(id) < data.Len(); id++ {
			name := data.Name(id)
			fmt.Fprintf(&got, "datum %d %s\n", id, name)
			if back, ok := data.Lookup(name); !ok || back != id {
				t.Errorf("%s: Lookup(%q) = %d, %v; want %d", c.name, name, back, ok, id)
			}
		}
		fmt.Fprintf(&got, "inputs %s\n", strings.Join(c.wf.InputKeys(), " "))
		if err := c.wf.Validate(); err != nil {
			fmt.Fprintf(&got, "validate %v\n", err)
		} else {
			got.WriteString("validate ok\n")
		}
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}

type datumNameCase struct {
	name string
	wf   *runtime.Workflow
}

func datumNameCases(t *testing.T) []datumNameCase {
	t.Helper()
	must := func(wf *runtime.Workflow, err error) *runtime.Workflow {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return wf
	}
	km := kmeans.Config{Dataset: dataset.Dataset{Name: "km", Rows: 100, Cols: 4}, Grid: 4, Clusters: 3, Iterations: 2}
	sq := dataset.Dataset{Name: "sq", Rows: 12, Cols: 12}
	cases := []datumNameCase{
		{"kmeans", must(kmeans.Build(km))},
		{"kmeans-predict", must(kmeans.BuildPredict(km, "C2"))},
		{"matmul-g1", must(matmul.Build(matmul.Config{Dataset: sq, Grid: 1}))},
		{"matmul-g3", must(matmul.Build(matmul.Config{Dataset: sq, Grid: 3}))},
		{"matmul-fma-g2", must(matmul.Build(matmul.Config{Dataset: sq, Grid: 2, Variant: matmul.FMA}))},
		{"linreg", must(linreg.Build(linreg.Config{Dataset: dataset.Dataset{Name: "lr", Rows: 90, Cols: 3}, Grid: 3, Iterations: 2}))},
	}

	ctx := dsarray.New("arrays", false)
	a, err := ctx.Random(sq, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Random(sq, 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.MatMul(b)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Transpose()
	if err != nil {
		t.Fatal(err)
	}
	s, err := tr.Scale(2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Add(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sum(); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, datumNameCase{"dsarray", ctx.Workflow()})

	wl := workload.Default(7)
	wl.Tasks = 12
	cases = append(cases, datumNameCase{"workload", must(workload.Generate(wl))})

	// A K-means workflow plus a probe reading a ninth iteration's partial
	// sums, reserved as a range but never sized, and writing an unsized
	// named datum: Validate must count and name them as before.
	wf := must(kmeans.Build(km))
	ps := wf.Graph.Data().Range("ps", 3, 9)
	wf.AddTask("probe", runtime.TaskSpec{},
		dag.Param{Data: ps.ID(0), Dir: dag.In},
		dag.Param{Data: ps.ID(1), Dir: dag.In},
		dag.Param{Data: ps.ID(2), Dir: dag.In},
		dag.Param{Data: wf.Datum("C9"), Dir: dag.Out})
	return append(cases, datumNameCase{"kmeans-unsized", wf})
}
