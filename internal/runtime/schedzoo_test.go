package runtime

import (
	"testing"

	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/faults"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
)

// newPolicies are the lookahead and work-stealing schedulers this file
// pins: determinism and rank-table correctness beyond the smoke coverage
// the shared policy loops give every member of sched.Policies().
var newPolicies = []sched.Policy{sched.HEFT, sched.BLevel, sched.MinMin, sched.WorkSteal}

// TestNewSchedulersDeterministic runs every new scheduler twice on an
// identical configuration — fault-free and under an ext4-style failure
// schedule, on a heterogeneous cluster — and requires byte-identical
// traces: the simulated clock is the only clock, so a rerun must replay
// exactly.
func TestNewSchedulersDeterministic(t *testing.T) {
	spec := cluster.Minotauro()
	speeds := make([]float64, spec.Nodes)
	for i := range speeds {
		speeds[i] = 1.0
		if i%2 == 1 {
			speeds[i] = 0.6
		}
	}
	for _, pol := range newPolicies {
		for _, faulty := range []bool{false, true} {
			cfg := SimConfig{
				Cluster: spec, Policy: pol, Device: costmodel.CPU,
				Storage: storage.Local, NodeSpeed: speeds, Seed: 11,
			}
			if faulty {
				cfg.Faults = faults.Config{
					Seed:     19,
					NodeMTBF: 50, NodeMTTR: 5,
					TaskFailProb: 0.05, MaxAttempts: 25,
					StragglerMTBF: 100,
				}
			}
			a, err := RunSim(gridWorkflow(4, 16, testProf), cfg)
			if err != nil {
				t.Fatalf("%v faulty=%v: first run: %v", pol, faulty, err)
			}
			b, err := RunSim(gridWorkflow(4, 16, testProf), cfg)
			if err != nil {
				t.Fatalf("%v faulty=%v: second run: %v", pol, faulty, err)
			}
			if a.Makespan != b.Makespan {
				t.Errorf("%v faulty=%v: makespans differ: %v vs %v",
					pol, faulty, a.Makespan, b.Makespan)
			}
			if ta, tb := traceCSV(t, a.Collector), traceCSV(t, b.Collector); ta != tb {
				t.Errorf("%v faulty=%v: traces diverge between identical runs", pol, faulty)
			}
		}
	}
}

// TestRankTablesProperties pins the runtime-side lookahead tables against
// the sched-package rank primitives: the b-level table is exactly
// sched.BLevels over the task estimates; HEFT on a homogeneous cluster
// with shared storage (no transfer pricing) reduces to the same table;
// heterogeneity and local storage only scale or raise ranks; non-lookahead
// policies carry no tables at all.
func TestRankTablesProperties(t *testing.T) {
	wf := gridWorkflow(4, 16, testProf)
	base := SimConfig{Policy: sched.BLevel, Device: costmodel.CPU, Storage: storage.Shared}
	base = base.withDefaults()

	blRanks, blCosts := rankTables(wf, &base)
	if blRanks == nil || blCosts == nil {
		t.Fatal("b-level tables missing")
	}
	want := sched.BLevels(wf.Graph, func(task *dag.Task) float64 {
		return taskEstimate(wf, task.ID, base.Params, base.Device)
	})
	for id := range want {
		if blRanks[id] != want[id] {
			t.Fatalf("b-level rank[%d] = %v, sched.BLevels says %v", id, blRanks[id], want[id])
		}
		if blCosts[id] <= 0 {
			t.Fatalf("cost[%d] = %v, want positive", id, blCosts[id])
		}
	}

	heft := base
	heft.Policy = sched.HEFT
	hRanks, hCosts := rankTables(wf, &heft)
	for id := range want {
		if hRanks[id] != blRanks[id] {
			t.Fatalf("homogeneous shared-storage HEFT rank[%d] = %v, want b-level %v",
				id, hRanks[id], blRanks[id])
		}
		if hCosts[id] != blCosts[id] {
			t.Fatalf("HEFT cost[%d] diverges from b-level cost", id)
		}
	}

	// A uniformly slower cluster scales every rank by the same factor —
	// the priority order is invariant under homogeneous speed.
	slow := heft
	slow.NodeSpeed = make([]float64, slow.Cluster.Nodes)
	for i := range slow.NodeSpeed {
		slow.NodeSpeed[i] = 0.5
	}
	sRanks, _ := rankTables(wf, &slow)
	for id := range want {
		if diff := sRanks[id] - 2*hRanks[id]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("half-speed rank[%d] = %v, want %v", id, sRanks[id], 2*hRanks[id])
		}
	}

	// Local storage prices producer-to-consumer transfers: ranks can only
	// go up relative to the unpriced table.
	local := heft
	local.Storage = storage.Local
	lRanks, _ := rankTables(wf, &local)
	raised := false
	for id := range want {
		if lRanks[id] < hRanks[id] {
			t.Fatalf("local-storage rank[%d] = %v below unpriced %v", id, lRanks[id], hRanks[id])
		}
		if lRanks[id] > hRanks[id] {
			raised = true
		}
	}
	if !raised {
		t.Error("local-storage transfer pricing raised no rank on a multi-level workflow")
	}

	mm := base
	mm.Policy = sched.MinMin
	mmRanks, mmCosts := rankTables(wf, &mm)
	if mmRanks != nil {
		t.Error("min-min carries a rank table; it orders by cost only")
	}
	if len(mmCosts) != wf.Graph.Len() {
		t.Error("min-min cost table missing")
	}
	for _, pol := range []sched.Policy{sched.FIFO, sched.Locality, sched.LIFO, sched.Random, sched.WorkSteal} {
		c := base
		c.Policy = pol
		if r, co := rankTables(wf, &c); r != nil || co != nil {
			t.Errorf("%v carries lookahead tables", pol)
		}
	}
}
