package workload

import (
	"testing"
	"testing/quick"

	"wfsim/internal/costmodel"
	"wfsim/internal/metrics"
	"wfsim/internal/runtime"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
)

func TestGenerateValidates(t *testing.T) {
	bad := []Config{
		{Tasks: 0, MaxFanIn: 1},
		{Tasks: 5, MaxFanIn: 0},
		{Tasks: 5, MaxFanIn: 1, ParallelFraction: 1.5},
		{Tasks: 5, MaxFanIn: 1, ChainBias: -0.1},
	}
	for _, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("invalid config accepted: %+v", cfg)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Default(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Default(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.Len() != b.Graph.Len() || a.Graph.MaxWidth() != b.Graph.MaxWidth() ||
		a.Graph.MaxHeight() != b.Graph.MaxHeight() {
		t.Fatal("same seed produced different workflows")
	}
}

func TestChainBiasShapesDAG(t *testing.T) {
	cfg := Default(3)
	cfg.Tasks = 200
	cfg.ChainBias = 0.98
	deep, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ChainBias = 0.0
	cfg.Seed = 3
	wide, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if deep.Graph.MaxHeight() <= wide.Graph.MaxHeight() {
		t.Fatalf("chain bias did not deepen the DAG: %d vs %d",
			deep.Graph.MaxHeight(), wide.Graph.MaxHeight())
	}
}

// TestRandomWorkflowsExecute is the central property test: any generated
// workflow must (a) validate, (b) simulate to completion on every
// storage × policy × device combination, (c) produce one record set per
// task, and (d) respect causality — no task stage starts before all of its
// dependencies' final stages end.
func TestRandomWorkflowsExecute(t *testing.T) {
	f := func(seed uint64, tasksRaw uint8, pfRaw uint8, biasRaw uint8) bool {
		cfg := Default(seed)
		cfg.Tasks = int(tasksRaw)%60 + 2
		cfg.ParallelFraction = float64(pfRaw%101) / 100
		cfg.ChainBias = float64(biasRaw%101) / 100
		wf, err := Generate(cfg)
		if err != nil {
			return false
		}
		if wf.Validate() != nil {
			return false
		}
		res, err := runtime.RunSim(wf, runtime.SimConfig{
			Storage: storage.Architecture(seed % 2),
			Policy:  sched.Policy(seed % 4),
			Device:  costmodel.DeviceKind(seed % 2),
			Seed:    seed,
		})
		if err != nil {
			return false
		}
		// One sched record per task.
		per := map[int]int{}
		taskEnd := map[int]float64{}
		taskStart := map[int]float64{}
		for _, rec := range res.Collector.Records() {
			if rec.Stage == metrics.StageSched {
				per[rec.TaskID]++
			}
			if rec.End > taskEnd[rec.TaskID] {
				taskEnd[rec.TaskID] = rec.End
			}
			// Earliest post-scheduling stage start (deser).
			if rec.Stage == metrics.StageDeser {
				taskStart[rec.TaskID] = rec.Start
			}
		}
		if len(per) != wf.Graph.Len() {
			return false
		}
		for _, n := range per {
			if n != 1 {
				return false
			}
		}
		// Causality: a task's deser cannot begin before each dependency's
		// last stage ended.
		for _, task := range wf.Graph.Tasks() {
			for _, d := range task.Deps() {
				if taskStart[task.ID] < taskEnd[int(d)]-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelFractionAxis sweeps the §5.5.1 axis between the paper's two
// algorithm families: higher parallel fraction ⇒ higher GPU benefit.
func TestParallelFractionAxis(t *testing.T) {
	speedup := func(pf float64) float64 {
		cfg := Default(11)
		cfg.Tasks = 64
		cfg.ChainBias = 0
		cfg.ParallelFraction = pf
		makespan := func(dev costmodel.DeviceKind) float64 {
			wf, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runtime.RunSim(wf, runtime.SimConfig{Device: dev})
			if err != nil {
				t.Fatal(err)
			}
			return res.Makespan
		}
		return makespan(costmodel.CPU) / makespan(costmodel.GPU)
	}
	low, high := speedup(0.2), speedup(0.98)
	if high <= low {
		t.Fatalf("GPU benefit should grow with parallel fraction: pf=0.2 → %.2f, pf=0.98 → %.2f",
			low, high)
	}
}
