package sched

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"wfsim/internal/dag"
)

// randomGraph builds a random dependency DAG the same way the
// critical-path property tests do: tasks touching a small pool of data
// names with random directions, so write-read chains emerge naturally.
func randomGraph(seed uint64, n int) (*dag.Graph, []float64) {
	rng := rand.New(rand.NewPCG(seed, 37))
	g := dag.New()
	data := []string{"a", "b", "c", "d"}
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		params := []dag.Param{
			{Data: g.Datum(data[rng.IntN(len(data))]), Dir: dag.Direction(rng.IntN(3))},
		}
		weights[g.Add("t", params...)] = rng.Float64()*5 + 0.1
	}
	return g, weights
}

// TestBLevelMatchesCriticalPath pins the ISSUE property: under matching
// weights, the b-level of the critical path's source task equals the
// Graph.CriticalPath length, and no task's b-level exceeds it.
func TestBLevelMatchesCriticalPath(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%60 + 1
		g, weights := randomGraph(seed, n)
		wfn := func(task *dag.Task) float64 { return weights[task.ID] }
		levels := BLevels(g, wfn)
		path, length := g.CriticalPath(func(id int) float64 { return weights[id] })
		// The first task of the critical path heads the longest
		// downward chain, which is exactly its bottom level.
		if math.Abs(levels[path[0]]-length) > 1e-9 {
			return false
		}
		// b-level is the longest path *starting* at a task, so the
		// maximum over all tasks is the critical path itself, and each
		// task's level is its own weight plus its best successor.
		var maxLevel float64
		for id, l := range levels {
			if l > maxLevel {
				maxLevel = l
			}
			var below float64
			for _, succ := range g.Succs(id) {
				if levels[succ] > below {
					below = levels[succ]
				}
			}
			if math.Abs(l-(weights[id]+below)) > 1e-9 {
				return false
			}
		}
		return math.Abs(maxLevel-length) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestUpwardRanksReduceToBLevels pins the homogeneous-cluster property:
// with no communication pricing (shared storage, or a uniform cluster
// where transfer cost vanishes), HEFT's upward ranks are exactly the
// b-levels; uniform speed scaling scales ranks linearly; and a positive
// comm term only ever raises a rank.
func TestUpwardRanksReduceToBLevels(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%60 + 1
		g, weights := randomGraph(seed, n)
		wfn := func(task *dag.Task) float64 { return weights[task.ID] }
		levels := BLevels(g, wfn)
		ranks := UpwardRanks(g, wfn, nil)
		byID := Ranks(g, func(id int) float64 { return weights[id] }, nil)
		for id := range levels {
			if ranks[id] != levels[id] || byID[id] != levels[id] {
				return false
			}
		}
		// A homogeneous cluster scales every task's mean cost by the
		// same 1/speed factor, so ranks scale linearly and the priority
		// order is unchanged.
		scaled := UpwardRanks(g, func(task *dag.Task) float64 { return 2.5 * wfn(task) }, nil)
		for id := range levels {
			if math.Abs(scaled[id]-2.5*levels[id]) > 1e-9 {
				return false
			}
		}
		// Pricing communication can only push ranks up.
		comm := UpwardRanks(g, wfn, func(from, to *dag.Task) float64 { return 0.7 })
		commByID := Ranks(g, func(id int) float64 { return weights[id] }, func(from, to int) float64 { return 0.7 })
		for id := range levels {
			if comm[id] < levels[id]-1e-9 || commByID[id] != comm[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestUpwardRanksCommChain pins the comm term's placement on a concrete
// chain: rank(t) = w(t) + comm(t, succ) + rank(succ).
func TestUpwardRanksCommChain(t *testing.T) {
	g := dag.New()
	g.Add("a", dag.Param{Data: g.Datum("x"), Dir: dag.Out})
	g.Add("b", dag.Param{Data: g.Datum("x"), Dir: dag.In}, dag.Param{Data: g.Datum("y"), Dir: dag.Out})
	g.Add("c", dag.Param{Data: g.Datum("y"), Dir: dag.In})
	unit := func(*dag.Task) float64 { return 1 }
	ranks := UpwardRanks(g, unit, func(from, to *dag.Task) float64 { return 10 })
	want := []float64{23, 12, 1}
	for id, w := range want {
		if ranks[id] != w {
			t.Errorf("rank[%d] = %v, want %v", id, ranks[id], w)
		}
	}
	levels := BLevels(g, unit)
	wantL := []float64{3, 2, 1}
	for id, w := range wantL {
		if levels[id] != w {
			t.Errorf("blevel[%d] = %v, want %v", id, levels[id], w)
		}
	}
}
