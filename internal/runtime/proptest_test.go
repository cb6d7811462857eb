package runtime

import (
	"math"
	"testing"
	"testing/quick"

	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/metrics"
)

// TestSingleTaskMatchesCostModel is a property test: for random task
// profiles, a single-task workflow simulated on an idle cluster reproduces
// the cost model's stage times exactly (the simulator adds contention, not
// arithmetic).
func TestSingleTaskMatchesCostModel(t *testing.T) {
	params := costmodel.DefaultParams()
	f := func(serRaw, parRaw, thrRaw, bytesRaw uint32, gpuMode bool) bool {
		prof := costmodel.Profile{
			Kernel:         costmodel.Kernel(int(serRaw) % 5),
			SerialOps:      float64(serRaw%1_000_000) + 1,
			ParallelOps:    float64(parRaw%100_000_000) + 1,
			Threads:        float64(thrRaw%10_000_000) + 1,
			BytesIn:        float64(bytesRaw % 50_000_000),
			BytesOut:       float64(bytesRaw % 10_000_000),
			DeviceMemBytes: 1e6,
			HostMemBytes:   1e6,
		}
		wf := NewWorkflow("prop")
		wf.SetSize("in", 1e6)
		wf.SetSize("out", 1e6)
		wf.AddTask("t", TaskSpec{Profile: prof},
			dag.Param{Data: wf.Datum("in"), Dir: dag.In},
			dag.Param{Data: wf.Datum("out"), Dir: dag.Out})
		dev := costmodel.CPU
		if gpuMode {
			dev = costmodel.GPU
		}
		res, err := RunSim(wf, SimConfig{
			Device:  dev,
			Cluster: cluster.Spec{Name: "p", Nodes: 1, CoresPerNode: 2, GPUsPerNode: 1},
		})
		if err != nil {
			return false
		}
		c := res.Collector.Aggregate()
		serial, _ := c.MeanStage("t", metrics.StageSerial)
		if math.Abs(serial-params.SerialTime(prof)) > 1e-9 {
			return false
		}
		par, _ := c.MeanStage("t", metrics.StageParallel)
		want := params.ParallelTime(prof, dev)
		if dev == costmodel.CPU {
			// A single task is alone at its level: node-wide threading.
			want /= params.SoloThreadSpeedup
		}
		if math.Abs(par-want) > 1e-9 {
			return false
		}
		in, _ := c.MeanStage("t", metrics.StageCommIn)
		out, _ := c.MeanStage("t", metrics.StageCommOut)
		if dev == costmodel.CPU {
			return in == 0 && out == 0
		}
		return math.Abs((in+out)-params.CommTimeUncontended(prof, costmodel.GPU)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
