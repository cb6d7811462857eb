package wfsim_test

import (
	"fmt"
	"log"
	"math"
	"testing"

	"wfsim"
)

func TestFacadeKMeansSim(t *testing.T) {
	wf, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
		Dataset: wfsim.Datasets.KMeansSmall, Grid: 64, Clusters: 10, Iterations: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := wfsim.RunSim(wf, wfsim.SimConfig{
		Device:  wfsim.GPU,
		Storage: wfsim.LocalDisk,
		Policy:  wfsim.DataLocality,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || res.GPUUtilization <= 0 {
		t.Fatalf("makespan=%v gpuutil=%v", res.Makespan, res.GPUUtilization)
	}
}

func TestFacadeMatmulLocal(t *testing.T) {
	wf, err := wfsim.BuildMatmul(wfsim.MatmulConfig{
		Dataset:     wfsim.Dataset{Name: "t", Rows: 64, Cols: 64},
		Grid:        2,
		Materialize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := wfsim.RunLocal(wf, wfsim.LocalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Get("C[0,0]") == nil {
		t.Fatal("output block missing")
	}
}

func TestFacadePartitionMath(t *testing.T) {
	p, err := wfsim.ByGrid(wfsim.Datasets.MatmulSmall, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.BlockBytes() != 512<<20 {
		t.Fatalf("block bytes = %d", p.BlockBytes())
	}
	p2, err := wfsim.ByBlock(wfsim.Datasets.MatmulSmall, p.BlockRows, p.BlockCols)
	if err != nil {
		t.Fatal(err)
	}
	if p2.GridRows != 4 || p2.GridCols != 4 {
		t.Fatalf("round trip grid = %s", p2.GridString())
	}
}

func TestFacadeExperiments(t *testing.T) {
	all := wfsim.AllExperiments()
	if len(all) < 11 {
		t.Fatalf("experiments = %d, want ≥ 11 (every paper artifact)", len(all))
	}
	if _, err := wfsim.ExperimentByID("fig1"); err != nil {
		t.Fatal(err)
	}
	if _, err := wfsim.ExperimentByID("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFacadeClusterAndParams(t *testing.T) {
	spec := wfsim.Minotauro()
	if spec.TotalCores() != 128 || spec.TotalGPUs() != 32 {
		t.Fatalf("minotauro = %+v", spec)
	}
	params := wfsim.DefaultParams()
	if params.GPUMemBytes != 12e9 {
		t.Fatalf("GPU memory = %v, want the K80's 12 GB", params.GPUMemBytes)
	}
}

func TestFacadeGenerators(t *testing.T) {
	b := wfsim.NewBlock(wfsim.BlockID{}, 100, 100)
	wfsim.NewGenerator(1).Fill(b)
	var mean float64
	for _, v := range b.Data {
		mean += v
	}
	mean /= float64(len(b.Data))
	if math.Abs(mean-0.5) > 0.05 {
		t.Fatalf("uniform mean = %v", mean)
	}
	sk := wfsim.NewBlock(wfsim.BlockID{}, 100, 100)
	wfsim.NewSkewedGenerator(1).Fill(sk)
	if sk.Data[0] == b.Data[0] && sk.Data[1] == b.Data[1] {
		t.Fatal("skewed generator produced uniform stream")
	}
}

// ExampleNewWorkflow demonstrates defining and simulating a workflow.
func ExampleNewWorkflow() {
	wf := wfsim.NewWorkflow("example")
	wf.SetSize("x", 1e6)
	wf.SetSize("y", 1e6)
	prof := wfsim.Profile{SerialOps: 1e5, ParallelOps: 1e8, Threads: 1e5,
		BytesIn: 1e6, BytesOut: 1e6, DeviceMemBytes: 2e6, HostMemBytes: 2e6}
	wf.AddTask("make", wfsim.TaskSpec{Profile: prof}, wfsim.Param{Data: wf.Datum("x"), Dir: wfsim.Out})
	wf.AddTask("use", wfsim.TaskSpec{Profile: prof},
		wfsim.Param{Data: wf.Datum("x"), Dir: wfsim.In}, wfsim.Param{Data: wf.Datum("y"), Dir: wfsim.Out})
	fmt.Println("tasks:", wf.Graph.Len(), "height:", wf.Graph.MaxHeight())
	// Output:
	// tasks: 2 height: 2
}

// ExampleRunSim demonstrates projecting the paper's K-means onto the
// simulated Minotauro cluster.
func ExampleRunSim() {
	wf, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
		Dataset: wfsim.Datasets.KMeansSmall, Grid: 256, Clusters: 10, Iterations: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := wfsim.RunSim(wf, wfsim.SimConfig{Device: wfsim.CPU})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tasks simulated:", res.SchedDecisions)
	// Output:
	// tasks simulated: 257
}
