package model

import (
	"testing"

	"wfsim/internal/apps/kmeans"
	"wfsim/internal/apps/linreg"
	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/dataset"
	"wfsim/internal/runtime"
)

// taskTimer derives a per-task service-time function from the workflow's
// attached profiles.
func taskTimer(wf *runtime.Workflow, params costmodel.Params, dev costmodel.DeviceKind) func(int) float64 {
	return func(id int) float64 {
		return params.UserCodeTimeUncontended(wf.SpecByID(id).Profile, dev)
	}
}

// TestWorkflowBoundsHoldInSimulation: the whole-DAG lower bound must never
// exceed a simulated makespan, for multiple workloads and devices.
func TestWorkflowBoundsHoldInSimulation(t *testing.T) {
	params := costmodel.DefaultParams()
	builds := []struct {
		name string
		wf   func() (*runtime.Workflow, error)
	}{
		{"kmeans-64", func() (*runtime.Workflow, error) {
			return kmeans.Build(kmeans.Config{Dataset: dataset.KMeansSmall, Grid: 64, Clusters: 10, Iterations: 3})
		}},
		{"linreg-32", func() (*runtime.Workflow, error) {
			return linreg.Build(linreg.Config{Dataset: dataset.KMeansSmall, Grid: 32, Iterations: 4})
		}},
	}
	for _, b := range builds {
		for _, dev := range []costmodel.DeviceKind{costmodel.CPU, costmodel.GPU} {
			wf, err := b.wf()
			if err != nil {
				t.Fatal(err)
			}
			slots := 128
			if dev == costmodel.GPU {
				slots = 32
			}
			bounds := BoundsForWorkflow(wf.Graph, slots, taskTimer(wf, params, dev))
			res, err := runtime.RunSim(wf, runtime.SimConfig{Device: dev})
			if err != nil {
				t.Fatal(err)
			}
			if res.Makespan < bounds.Lower*0.999 {
				t.Errorf("%s/%v: makespan %.3f below lower bound %.3f",
					b.name, dev, res.Makespan, bounds.Lower)
			}
			if bounds.Upper < bounds.Lower {
				t.Errorf("%s/%v: upper %v < lower %v", b.name, dev, bounds.Upper, bounds.Lower)
			}
			if len(bounds.CriticalTasks) == 0 {
				t.Errorf("%s/%v: empty critical path", b.name, dev)
			}
		}
	}
}

// TestCriticalPathAlternatesKMeans: K-means' critical path must alternate
// partial_sum and merge tasks through every iteration.
func TestCriticalPathAlternatesKMeans(t *testing.T) {
	params := costmodel.DefaultParams()
	wf, err := kmeans.Build(kmeans.Config{Dataset: dataset.KMeansSmall, Grid: 8, Clusters: 10, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	path, _ := wf.Graph.CriticalPath(taskTimer(wf, params, costmodel.CPU))
	if len(path) != 6 {
		t.Fatalf("critical path length = %d tasks, want 6 (3 iterations × 2)", len(path))
	}
	for i, id := range path {
		name := wf.Graph.Name(id)
		want := "partial_sum"
		if i%2 == 1 {
			want = "merge"
		}
		if name != want {
			t.Fatalf("path[%d] = %s, want %s", i, name, want)
		}
	}
}

func TestWorkflowBoundsDegenerate(t *testing.T) {
	if b := BoundsForWorkflow(dag.New(), 4, func(int) float64 { return 1 }); b.Lower != 0 {
		t.Fatal("empty graph should bound to zero")
	}
	g := dag.New()
	g.Add("t")
	if b := BoundsForWorkflow(g, 0, func(int) float64 { return 1 }); b.Lower != 0 {
		t.Fatal("zero slots should bound to zero")
	}
}
