// Quickstart: define a tiny task-based workflow with the public API, run
// it for real on the local backend, then project it onto the paper's
// Minotauro cluster with the simulator.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"wfsim"
)

func main() {
	// A three-stage pipeline over named data: produce -> square -> sum.
	// Each datum gets a dense ID from its name; task parameters name data
	// by ID, and dependencies are inferred from the data directions,
	// PyCOMPSs-style.
	wf := wfsim.NewWorkflow("quickstart")
	vID, v2ID, totalID := wf.Datum("v"), wf.Datum("v2"), wf.Datum("total")

	const n = 1 << 16
	prof := wfsim.Profile{
		SerialOps:      1000,
		ParallelOps:    4 * n,
		Threads:        n,
		BytesIn:        8 * n,
		BytesOut:       8 * n,
		DeviceMemBytes: 16 * n,
		HostMemBytes:   16 * n,
	}

	wf.SetSizeByID(vID, 8*n)
	wf.SetSizeByID(v2ID, 8*n)
	wf.SetSizeByID(totalID, 8)

	wf.AddTask("produce", wfsim.TaskSpec{
		Profile: prof,
		Exec: func(s *wfsim.Store) error {
			b := newVector(n)
			for i := range b.Data {
				b.Data[i] = float64(i % 100)
			}
			s.Put("v", b)
			return nil
		},
	}, wfsim.Param{Data: vID, Dir: wfsim.Out})

	wf.AddTask("square", wfsim.TaskSpec{
		Profile: prof,
		Exec: func(s *wfsim.Store) error {
			in := s.MustGet("v")
			out := newVector(n)
			for i, v := range in.Data {
				out.Data[i] = v * v
			}
			s.Put("v2", out)
			return nil
		},
	}, wfsim.Param{Data: vID, Dir: wfsim.In}, wfsim.Param{Data: v2ID, Dir: wfsim.Out})

	wf.AddTask("sum", wfsim.TaskSpec{
		Profile: wfsim.Profile{SerialOps: n},
		Exec: func(s *wfsim.Store) error {
			in := s.MustGet("v2")
			total := newVector(1)
			for _, v := range in.Data {
				total.Data[0] += v
			}
			s.Put("total", total)
			return nil
		},
	}, wfsim.Param{Data: v2ID, Dir: wfsim.In}, wfsim.Param{Data: totalID, Dir: wfsim.Out})

	fmt.Printf("DAG: %d tasks, width %d, height %d\n", wf.Graph.Len(), wf.Graph.MaxWidth(), wf.Graph.MaxHeight())
	fmt.Println("    ", wf.Graph.Summary())
	fmt.Println("\nGraphviz DOT:")
	if err := wf.Graph.DOT(os.Stdout, "quickstart"); err != nil {
		log.Fatal(err)
	}

	// Real execution.
	local, err := wfsim.RunLocal(wf, wfsim.LocalConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlocal run: Σ v² = %.0f in %v\n", local.Store.MustGet("total").Data[0], local.Elapsed)

	// Simulated execution on the paper's cluster, CPU vs GPU.
	for _, dev := range []struct {
		name string
		kind wfsim.SimConfig
	}{
		{"CPU", wfsim.SimConfig{Device: wfsim.CPU}},
		{"GPU", wfsim.SimConfig{Device: wfsim.GPU}},
	} {
		res, err := wfsim.RunSim(wf, dev.kind)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("simulated on Minotauro (%s tasks): makespan %.6fs, core util %.1f%%\n",
			dev.name, res.Makespan, res.CoreUtilization*100)
	}
}

func newVector(n int64) *wfsim.Block {
	return wfsim.NewBlock(wfsim.BlockID{}, n, 1)
}
