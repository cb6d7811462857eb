package runtime

import (
	"fmt"
	"math"
	"testing"

	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/dataset"
	"wfsim/internal/metrics"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
)

// chainWorkflow builds a linear chain a -> b -> c ... of n tasks over one
// datum, each with the given profile.
func chainWorkflow(n int, prof costmodel.Profile) *Workflow {
	wf := NewWorkflow("chain")
	wf.SetSize("x", 1e6)
	wf.AddTask("init", TaskSpec{Profile: prof}, dag.Param{Data: wf.Datum("x"), Dir: dag.Out})
	for i := 1; i < n; i++ {
		wf.AddTask("step", TaskSpec{Profile: prof}, dag.Param{Data: wf.Datum("x"), Dir: dag.InOut})
	}
	return wf
}

// fanWorkflow builds n independent tasks each reading a shared input and
// writing its own output.
func fanWorkflow(n int, prof costmodel.Profile) *Workflow {
	wf := NewWorkflow("fan")
	wf.SetSize("in", 1e6)
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("out%d", i)
		wf.SetSize(out, 1e6)
		wf.AddTask("work", TaskSpec{Profile: prof},
			dag.Param{Data: wf.Datum("in"), Dir: dag.In},
			dag.Param{Data: wf.Datum(out), Dir: dag.Out})
	}
	return wf
}

var testProf = costmodel.Profile{
	Kernel:      costmodel.KernelGeneric,
	SerialOps:   1e6,
	ParallelOps: 1e9,
	Threads:     1e6,
	BytesIn:     1e6,
	BytesOut:    1e6,
	// Device/host footprints well within limits.
	DeviceMemBytes: 1e6,
	HostMemBytes:   1e6,
}

func TestSimChainSerializes(t *testing.T) {
	wf := chainWorkflow(5, testProf)
	res, err := RunSim(wf, SimConfig{Device: costmodel.CPU})
	if err != nil {
		t.Fatal(err)
	}
	if res.Collector.Len() == 0 {
		t.Fatal("no records collected")
	}
	// A 5-task chain has 5 levels; level spans must not overlap in a way
	// that violates dependencies: each level starts at or after the
	// previous level's user code ends.
	if got := len(res.Collector.Aggregate().Levels()); got != 5 {
		t.Fatalf("levels = %d, want 5", got)
	}
	if res.SchedDecisions != 5 {
		t.Fatalf("decisions = %d, want 5", res.SchedDecisions)
	}
}

func TestSimFanScalesOut(t *testing.T) {
	// 128 independent tasks on 128 cores must take far less than 128x a
	// single task's time, and more than 1x.
	prof := testProf
	solo, err := RunSim(fanWorkflow(1, prof), SimConfig{Device: costmodel.CPU})
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunSim(fanWorkflow(128, prof), SimConfig{Device: costmodel.CPU})
	if err != nil {
		t.Fatal(err)
	}
	if many.Makespan > solo.Makespan*20 {
		t.Fatalf("128-task fan took %vx a single task: no task parallelism", many.Makespan/solo.Makespan)
	}
	if many.Makespan < solo.Makespan {
		t.Fatalf("fan faster than single task: %v < %v", many.Makespan, solo.Makespan)
	}
	if many.CoreUtilization <= solo.CoreUtilization {
		t.Fatal("utilization did not increase with task parallelism")
	}
}

func TestSimGPUTaskParallelismLimit(t *testing.T) {
	// GPU-accelerated fan of 128 tasks can only use 32 GPUs: its kernel
	// stage concurrency is bounded, so with a kernel-dominated profile the
	// GPU run must be slower than 32-way-parallel lower bound but not
	// serialized.
	prof := testProf
	prof.ParallelOps = 5e10 // kernel-dominated
	cpu, err := RunSim(fanWorkflow(128, prof), SimConfig{Device: costmodel.CPU})
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := RunSim(fanWorkflow(128, prof), SimConfig{Device: costmodel.GPU})
	if err != nil {
		t.Fatal(err)
	}
	// Kernel time CPU: 5e10/2e9 = 25s; 128 tasks on 128 cores ≈ 25s.
	// GPU: occ(1e6/(1e6+5e6))=1/6 → 5e10/(3e10/6)=10s; 128 tasks on 32
	// GPUs ≈ 4 waves ≈ 40s. GPU should lose despite a faster kernel.
	if gpu.Makespan <= cpu.Makespan {
		t.Fatalf("GPU fan (%v) should be slower than CPU fan (%v): task parallelism 32 vs 128",
			gpu.Makespan, cpu.Makespan)
	}
}

func TestSimOOM(t *testing.T) {
	prof := testProf
	prof.DeviceMemBytes = 20e9 // exceeds the 12 GB GPU
	_, err := RunSim(fanWorkflow(2, prof), SimConfig{Device: costmodel.GPU})
	if !ErrOOM(err) {
		t.Fatalf("err = %v, want GPU OOM", err)
	}
	// The same workflow on CPU fits (host RAM is 128 GB).
	if _, err := RunSim(fanWorkflow(2, prof), SimConfig{Device: costmodel.CPU}); err != nil {
		t.Fatalf("CPU run failed: %v", err)
	}
	prof.HostMemBytes = 200e9
	_, err = RunSim(fanWorkflow(2, prof), SimConfig{Device: costmodel.CPU})
	if !ErrOOM(err) {
		t.Fatalf("err = %v, want host OOM", err)
	}
}

func TestSimDeterministic(t *testing.T) {
	run := func() float64 {
		res, err := RunSim(fanWorkflow(64, testProf), SimConfig{
			Device: costmodel.GPU, Storage: storage.Local, Policy: sched.Locality,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic makespans: %v vs %v", a, b)
	}
}

func TestSimStorageArchitectureMatters(t *testing.T) {
	// Same workflow, local vs shared storage: shared must be slower for an
	// I/O-heavy fan (the paper's local < shared finding).
	prof := testProf
	prof.SerialOps, prof.ParallelOps = 0, 1e6
	wf := func() *Workflow {
		w := NewWorkflow("io")
		for i := 0; i < 64; i++ {
			in, out := fmt.Sprintf("in%d", i), fmt.Sprintf("out%d", i)
			w.SetSize(in, 100e6)
			w.SetSize(out, 100e6)
			w.AddTask("io", TaskSpec{Profile: prof},
				dag.Param{Data: w.Datum(in), Dir: dag.In}, dag.Param{Data: w.Datum(out), Dir: dag.Out})
		}
		return w
	}
	local, err := RunSim(wf(), SimConfig{Storage: storage.Local})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := RunSim(wf(), SimConfig{Storage: storage.Shared})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Makespan <= local.Makespan {
		t.Fatalf("shared (%v) should be slower than local (%v) for I/O-heavy load",
			shared.Makespan, local.Makespan)
	}
}

func TestSimSchedulerPoliciesRun(t *testing.T) {
	for _, pol := range sched.Policies() {
		res, err := RunSim(fanWorkflow(16, testProf), SimConfig{Policy: pol})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%v: zero makespan", pol)
		}
	}
}

func TestSimStageAccounting(t *testing.T) {
	// Every task must log exactly one record of each relevant stage, with
	// non-negative durations and monotonically consistent bounds.
	res, err := RunSim(fanWorkflow(8, testProf), SimConfig{Device: costmodel.GPU})
	if err != nil {
		t.Fatal(err)
	}
	perTask := map[int]map[metrics.Stage]int{}
	for _, r := range res.Collector.Records() {
		if r.Duration() < 0 {
			t.Fatalf("negative duration: %+v", r)
		}
		if perTask[r.TaskID] == nil {
			perTask[r.TaskID] = map[metrics.Stage]int{}
		}
		perTask[r.TaskID][r.Stage]++
	}
	if len(perTask) != 8 {
		t.Fatalf("records for %d tasks, want 8", len(perTask))
	}
	for id, stages := range perTask {
		for _, st := range []metrics.Stage{
			metrics.StageSched, metrics.StageDeser, metrics.StageCommIn,
			metrics.StageParallel, metrics.StageSerial, metrics.StageCommOut, metrics.StageSer,
		} {
			if stages[st] != 1 {
				t.Fatalf("task %d: stage %v count = %d, want 1", id, st, stages[st])
			}
		}
	}
}

func TestSimSerialTaskStaysOnCPU(t *testing.T) {
	// A task with no parallel fraction must run on CPU even in GPU mode
	// (§3.3: serial tasks are assigned to CPUs).
	prof := testProf
	prof.ParallelOps = 0
	wf := fanWorkflow(4, prof)
	res, err := RunSim(wf, SimConfig{Device: costmodel.GPU})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Collector.Records() {
		if r.Device != "CPU" {
			t.Fatalf("serial task recorded on %s", r.Device)
		}
	}
}

func TestWorkflowValidateMissingSize(t *testing.T) {
	wf := NewWorkflow("bad")
	wf.AddTask("t", TaskSpec{}, dag.Param{Data: wf.Datum("unsized"), Dir: dag.Out})
	if err := wf.Validate(); err == nil {
		t.Fatal("missing size not reported")
	}
}

func TestInputKeys(t *testing.T) {
	wf := NewWorkflow("io")
	wf.SetSize("a", 1)
	wf.SetSize("b", 1)
	wf.SetSize("c", 1)
	wf.AddTask("t1", TaskSpec{}, dag.Param{Data: wf.Datum("a"), Dir: dag.In}, dag.Param{Data: wf.Datum("b"), Dir: dag.Out})
	wf.AddTask("t2", TaskSpec{}, dag.Param{Data: wf.Datum("b"), Dir: dag.In}, dag.Param{Data: wf.Datum("c"), Dir: dag.Out})
	keys := wf.InputKeys()
	if len(keys) != 1 || keys[0] != "a" {
		t.Fatalf("input keys = %v, want [a]", keys)
	}
}

func TestRunLocalComputesAndRespectsDeps(t *testing.T) {
	// Chain of increments over a 1x1 block: final value must equal chain
	// length, proving both execution and ordering.
	wf := NewWorkflow("inc")
	b := dataset.NewBlock(dataset.BlockID{}, 1, 1)
	wf.SetInput("x", b)
	n := 20
	for i := 0; i < n; i++ {
		wf.AddTask("inc", TaskSpec{
			Exec: func(s *Store) error {
				blk := s.MustGet("x")
				blk.Set(0, 0, blk.At(0, 0)+1)
				return nil
			},
		}, dag.Param{Data: wf.Datum("x"), Dir: dag.InOut})
	}
	res, err := RunLocal(wf, LocalConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Store.MustGet("x").At(0, 0); got != float64(n) {
		t.Fatalf("chain result = %v, want %d", got, n)
	}
	if res.Collector.Len() != n {
		t.Fatalf("records = %d, want %d", res.Collector.Len(), n)
	}
}

func TestRunLocalParallelFan(t *testing.T) {
	wf := NewWorkflow("fan")
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("o%d", i)
		wf.SetSize(key, 8)
		i := i
		wf.AddTask("mk", TaskSpec{
			Exec: func(s *Store) error {
				b := dataset.NewBlock(dataset.BlockID{Row: int64(i)}, 1, 1)
				b.Set(0, 0, float64(i)*2)
				s.Put(key, b)
				return nil
			},
		}, dag.Param{Data: wf.Datum(key), Dir: dag.Out})
	}
	res, err := RunLocal(wf, LocalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if got := res.Store.MustGet(fmt.Sprintf("o%d", i)).At(0, 0); got != float64(i)*2 {
			t.Fatalf("o%d = %v, want %v", i, got, float64(i)*2)
		}
	}
}

func TestRunLocalErrorPropagates(t *testing.T) {
	wf := NewWorkflow("err")
	wf.SetSize("x", 1)
	wf.AddTask("boom", TaskSpec{
		Exec: func(s *Store) error { return fmt.Errorf("kaput") },
	}, dag.Param{Data: wf.Datum("x"), Dir: dag.Out})
	wf.AddTask("never", TaskSpec{
		Exec: func(s *Store) error { return nil },
	}, dag.Param{Data: wf.Datum("x"), Dir: dag.In})
	if _, err := RunLocal(wf, LocalConfig{}); err == nil {
		t.Fatal("error not propagated")
	}
}

func TestSimSingleResourceCluster(t *testing.T) {
	// The Figure 1 "single task" configuration: 1 node, 1 core, 1 GPU.
	spec := cluster.Spec{Name: "single", Nodes: 1, CoresPerNode: 1, GPUsPerNode: 1}
	res, err := RunSim(fanWorkflow(3, testProf), SimConfig{Cluster: spec, Device: costmodel.GPU})
	if err != nil {
		t.Fatal(err)
	}
	// With one core, the 3 tasks fully serialize: utilization ≈ 1 aside
	// from scheduling gaps.
	if res.CoreUtilization < 0.8 {
		t.Fatalf("single-core utilization = %v, want ≈1", res.CoreUtilization)
	}
}

func TestSimUserCodeMatchesAnalytic(t *testing.T) {
	// For a single task on an idle cluster the simulated stage times must
	// equal the cost model's uncontended predictions.
	params := costmodel.DefaultParams()
	wf := fanWorkflow(1, testProf)
	res, err := RunSim(wf, SimConfig{Device: costmodel.GPU, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Collector.Aggregate()
	wantPar := params.ParallelTime(testProf, costmodel.GPU)
	gotPar, _ := c.MeanStage("work", metrics.StageParallel)
	if math.Abs(gotPar-wantPar) > 1e-9 {
		t.Fatalf("parallel stage = %v, want %v", gotPar, wantPar)
	}
	wantSerial := params.SerialTime(testProf)
	gotSerial, _ := c.MeanStage("work", metrics.StageSerial)
	if math.Abs(gotSerial-wantSerial) > 1e-9 {
		t.Fatalf("serial stage = %v, want %v", gotSerial, wantSerial)
	}
	in, _ := c.MeanStage("work", metrics.StageCommIn)
	out, _ := c.MeanStage("work", metrics.StageCommOut)
	wantComm := params.CommTimeUncontended(testProf, costmodel.GPU)
	if math.Abs(in+out-wantComm) > 1e-9 {
		t.Fatalf("comm = %v, want %v", in+out, wantComm)
	}
}
