package runtime

import (
	"fmt"
	"strings"
	"testing"

	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/faults"
	"wfsim/internal/metrics"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
)

// tinyProf is a task that finishes much faster than a scheduling decision
// (0.2 ms of serial work vs 0.35 ms of master service time), so completions
// interleave with a backlog of pending dispatch requests.
var tinyProf = costmodel.Profile{
	Kernel:       costmodel.KernelGeneric,
	SerialOps:    1e4,
	HostMemBytes: 1e6,
}

// twoLevelFan builds width independent two-task chains a_i -> b_i.
func twoLevelFan(width int) *Workflow {
	wf := NewWorkflow("twolevel")
	for i := 0; i < width; i++ {
		x, y := fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i)
		wf.SetSize(x, 1e4)
		wf.SetSize(y, 1e4)
		wf.AddTask("a", TaskSpec{Profile: tinyProf}, dag.Param{Data: wf.Datum(x), Dir: dag.Out})
		wf.AddTask("b", TaskSpec{Profile: tinyProf},
			dag.Param{Data: wf.Datum(x), Dir: dag.In},
			dag.Param{Data: wf.Datum(y), Dir: dag.Out})
	}
	return wf
}

// gridWorkflow builds `levels` dependent waves of `width` parallel chains:
// task (l, i) reads the block written by (l-1, i). Deep enough for node
// crashes to strand in-flight work and orphan already-written blocks.
func gridWorkflow(levels, width int, prof costmodel.Profile) *Workflow {
	wf := NewWorkflow("grid")
	name := func(l, i int) string { return fmt.Sprintf("x%d_%d", l, i) }
	for l := 0; l < levels; l++ {
		for i := 0; i < width; i++ {
			wf.SetSize(name(l, i), 4e6)
		}
	}
	for i := 0; i < width; i++ {
		wf.AddTask("src", TaskSpec{Profile: prof}, dag.Param{Data: wf.Datum(name(0, i)), Dir: dag.Out})
	}
	for l := 1; l < levels; l++ {
		for i := 0; i < width; i++ {
			wf.AddTask("step", TaskSpec{Profile: prof},
				dag.Param{Data: wf.Datum(name(l-1, i)), Dir: dag.In},
				dag.Param{Data: wf.Datum(name(l, i)), Dir: dag.Out})
		}
	}
	return wf
}

// TestLIFOSchedAttribution is the regression test for the dispatch-path
// timestamp bug: arrival instants were consumed in FIFO grant order while
// the LIFO discipline pops the newest ref, so a freshly enqueued task was
// attributed the oldest outstanding request's timestamp. With the enqueue
// instant riding on the TaskRef, no task's sched stage may start before
// the task could possibly be ready (all dependencies' writes finished).
func TestLIFOSchedAttribution(t *testing.T) {
	wf := twoLevelFan(64)
	res, err := RunSim(wf, SimConfig{Policy: sched.LIFO, Device: costmodel.CPU})
	if err != nil {
		t.Fatal(err)
	}
	serEnd := map[int]float64{}
	schedStart := map[int]float64{}
	for _, r := range res.Collector.Records() {
		switch r.Stage {
		case metrics.StageSer:
			serEnd[r.TaskID] = r.End
		case metrics.StageSched:
			schedStart[r.TaskID] = r.Start
		}
	}
	violations := 0
	for _, task := range wf.Graph.Tasks() {
		ready := 0.0
		for _, dep := range task.Deps() {
			if e := serEnd[int(dep)]; e > ready {
				ready = e
			}
		}
		if schedStart[task.ID] < ready-1e-12 {
			violations++
			if violations <= 3 {
				t.Errorf("task %d (%s): sched stage starts at %v but its dependencies only finished at %v",
					task.ID, task.Name, schedStart[task.ID], ready)
			}
		}
	}
	if violations > 0 {
		t.Errorf("%d tasks attributed a sched start before readiness", violations)
	}
}

// TestUnknownReadAssertion pins the fault-free-path invariant: a missed
// block read without fault injection is a placement bug and must panic
// loudly instead of being served as free local scratch.
func TestUnknownReadAssertion(t *testing.T) {
	wf := fanWorkflow(1, testProf)
	r := &simRun{}
	defer func() {
		msg, ok := recover().(string)
		if !ok {
			t.Fatal("unknown read with faults disabled did not panic")
		}
		if !strings.Contains(msg, "placement bug") {
			t.Fatalf("panic does not name the invariant: %q", msg)
		}
	}()
	r.panicUnknownRead(sched.TaskRef{ID: 0, Name: wf.Graph.Name(0)}, 0)
}

// faultCfg is an aggressive crash schedule relative to the grid workflow's
// few-second makespan: several node losses per run.
func faultCfg(seed uint64) faults.Config {
	return faults.Config{
		Seed:     seed,
		NodeMTBF: 2.0,
		NodeMTTR: 0.3,
	}
}

// checkCompleteTrace asserts every task logged at least one full
// successful pipeline (sched + ser records) and returns the per-stage
// record counts.
func checkCompleteTrace(t *testing.T, wf *Workflow, res *SimResult) map[metrics.Stage]int {
	t.Helper()
	perTaskSer := make([]int, wf.Graph.Len())
	stageCount := map[metrics.Stage]int{}
	for _, r := range res.Collector.Records() {
		stageCount[r.Stage]++
		if r.Stage == metrics.StageSer {
			perTaskSer[r.TaskID]++
		}
	}
	for id, n := range perTaskSer {
		if n < 1 {
			t.Errorf("task %d completed no successful attempt", id)
		}
	}
	return stageCount
}

func TestSimCrashRecoveryLocalLineage(t *testing.T) {
	wf := gridWorkflow(6, 32, testProf)
	res, err := RunSim(wf, SimConfig{
		Device:  costmodel.CPU,
		Storage: storage.Local,
		Faults:  faultCfg(11),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Faults
	t.Logf("faults: %+v makespan=%v", f, res.Makespan)
	if f.Crashes == 0 {
		t.Fatal("crash schedule never fired; the test exercises nothing")
	}
	if f.BlocksLost == 0 {
		t.Error("local-disk node loss lost no blocks")
	}
	if f.LineageRecomputes == 0 {
		t.Error("lost produced blocks were never recomputed by lineage")
	}
	if f.WastedWork <= 0 {
		t.Error("crashed attempts reported no wasted work")
	}
	stages := checkCompleteTrace(t, wf, res)
	if stages[metrics.StageRecovery] == 0 {
		t.Error("no StageRecovery records despite crashes")
	}
}

func TestSimCrashRecoverySharedSurvives(t *testing.T) {
	wf := gridWorkflow(6, 32, testProf)
	res, err := RunSim(wf, SimConfig{
		Device:  costmodel.CPU,
		Storage: storage.Shared,
		Faults:  faultCfg(11),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Faults
	t.Logf("faults: %+v makespan=%v", f, res.Makespan)
	if f.Crashes == 0 {
		t.Fatal("crash schedule never fired")
	}
	// The decoupled backend survives node loss: recovery pays only the
	// re-queue of in-flight attempts, never block loss or recomputation.
	if f.BlocksLost != 0 {
		t.Errorf("shared storage lost %d blocks on node crash", f.BlocksLost)
	}
	if f.LineageRecomputes != 0 || f.InputRestages != 0 {
		t.Errorf("shared storage needed lineage recovery (%d recomputes, %d restages)",
			f.LineageRecomputes, f.InputRestages)
	}
	if f.CrashRequeues == 0 {
		t.Error("crashes stranded no in-flight attempts")
	}
	checkCompleteTrace(t, wf, res)
}

func TestSimTransientRetries(t *testing.T) {
	wf := gridWorkflow(4, 32, testProf)
	res, err := RunSim(wf, SimConfig{
		Device: costmodel.CPU,
		Faults: faults.Config{Seed: 3, TaskFailProb: 0.15, MaxAttempts: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Faults
	t.Logf("faults: %+v", f)
	if f.TransientFailures == 0 {
		t.Fatal("no transient failures at 15% per-attempt probability")
	}
	// The run completed, so every failure was retried within budget.
	if f.Retries != f.TransientFailures {
		t.Errorf("retries %d != transient failures %d in a completed run",
			f.Retries, f.TransientFailures)
	}
	if f.WastedWork <= 0 {
		t.Error("failed attempts reported no wasted work")
	}
	checkCompleteTrace(t, wf, res)
}

func TestSimRetryExhaustion(t *testing.T) {
	wf := fanWorkflow(8, testProf)
	_, err := RunSim(wf, SimConfig{
		Device: costmodel.CPU,
		Faults: faults.Config{Seed: 5, TaskFailProb: 0.97, MaxAttempts: 2},
	})
	if err == nil {
		t.Fatal("97% failure probability with 2 attempts completed; expected exhaustion")
	}
	if !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("exhaustion error does not say so: %v", err)
	}
}

func TestSimStragglerEpisodes(t *testing.T) {
	wf := gridWorkflow(4, 64, testProf)
	base, err := RunSim(wf, SimConfig{Device: costmodel.CPU})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunSim(wf, SimConfig{
		Device: costmodel.CPU,
		Faults: faults.Config{
			Seed: 9, StragglerMTBF: 0.5, StragglerDuration: 0.5, StragglerFactor: 0.2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("makespan %v -> %v, episodes %d", base.Makespan, slow.Makespan, slow.Faults.Episodes)
	if slow.Faults.Episodes == 0 {
		t.Fatal("no straggler episodes fired")
	}
	if slow.Makespan <= base.Makespan {
		t.Errorf("straggler episodes did not slow the run: %v <= %v", slow.Makespan, base.Makespan)
	}
}

// TestSimFaultRunDeterministic pins byte-level reproducibility of a faulty
// run at the runtime layer (the root-level test covers the full K-means
// trace): same seed, same stats, same makespan.
func TestSimFaultRunDeterministic(t *testing.T) {
	run := func() *SimResult {
		wf := gridWorkflow(5, 24, testProf)
		res, err := RunSim(wf, SimConfig{
			Device:  costmodel.CPU,
			Storage: storage.Local,
			Faults: faults.Config{
				Seed: 21, NodeMTBF: 1.5, NodeMTTR: 0.25, TaskFailProb: 0.05,
				StragglerMTBF: 2, StragglerDuration: 0.4,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Errorf("makespan differs across identical faulty runs: %v vs %v", a.Makespan, b.Makespan)
	}
	if a.Faults != b.Faults {
		t.Errorf("fault stats differ across identical faulty runs:\n  %+v\n  %+v", a.Faults, b.Faults)
	}
	if a.Collector.Len() != b.Collector.Len() {
		t.Errorf("record counts differ: %d vs %d", a.Collector.Len(), b.Collector.Len())
	}
}

// TestSimFaultsDisabledIsNoOp double-checks the strict no-op contract at
// the result level: a zero FaultConfig must not perturb a run at all.
func TestSimFaultsDisabledIsNoOp(t *testing.T) {
	wf := gridWorkflow(4, 16, testProf)
	plain, err := RunSim(wf, SimConfig{Device: costmodel.CPU})
	if err != nil {
		t.Fatal(err)
	}
	zeroed, err := RunSim(wf, SimConfig{Device: costmodel.CPU, Faults: faults.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Makespan != zeroed.Makespan || plain.Collector.Len() != zeroed.Collector.Len() {
		t.Errorf("zero fault config perturbed the run: makespan %v vs %v, records %d vs %d",
			plain.Makespan, zeroed.Makespan, plain.Collector.Len(), zeroed.Collector.Len())
	}
	if zeroed.Faults != (FaultStats{}) {
		t.Errorf("fault stats non-zero without injection: %+v", zeroed.Faults)
	}
}
