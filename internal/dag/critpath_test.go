package dag

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func unit(*Task) float64 { return 1 }

func TestCriticalPathUnitWeightsEqualsHeight(t *testing.T) {
	g := New()
	g.Add("a", Param{Data: g.Datum("x"), Dir: Out})
	g.Add("b", Param{Data: g.Datum("x"), Dir: In}, Param{Data: g.Datum("y"), Dir: Out})
	g.Add("c", Param{Data: g.Datum("y"), Dir: In})
	g.Add("d", Param{Data: g.Datum("x"), Dir: In}) // parallel branch
	path, length := g.CriticalPath(unit)
	if length != 3 {
		t.Fatalf("length = %v, want 3", length)
	}
	if len(path) != 3 || path[0] != 0 || path[2] != 2 {
		t.Fatalf("path = %v, want [0 1 2]", path)
	}
}

func TestCriticalPathWeighted(t *testing.T) {
	// A heavy single task beats a longer light chain.
	g := New()
	g.Add("chain1", Param{Data: g.Datum("a"), Dir: Out})
	g.Add("chain2", Param{Data: g.Datum("a"), Dir: In}, Param{Data: g.Datum("b"), Dir: Out})
	g.Add("chain3", Param{Data: g.Datum("b"), Dir: In})
	heavy := g.Add("heavy", Param{Data: g.Datum("c"), Dir: Out})
	weights := map[int]float64{0: 1, 1: 1, 2: 1, heavy.ID: 10}
	path, length := g.CriticalPath(func(t *Task) float64 { return weights[t.ID] })
	if length != 10 {
		t.Fatalf("length = %v, want 10", length)
	}
	if len(path) != 1 || path[0] != heavy.ID {
		t.Fatalf("path = %v, want [heavy]", path)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	path, length := New().CriticalPath(unit)
	if path != nil || length != 0 {
		t.Fatal("empty graph should have zero critical path")
	}
}

func TestTotalWeight(t *testing.T) {
	g := New()
	g.Add("a", Param{Data: g.Datum("x"), Dir: Out})
	g.Add("b", Param{Data: g.Datum("x"), Dir: In})
	if got := g.TotalWeight(func(*Task) float64 { return 2.5 }); got != 5 {
		t.Fatalf("total = %v, want 5", got)
	}
	// Negative weights are clamped to zero.
	if got := g.TotalWeight(func(*Task) float64 { return -1 }); got != 0 {
		t.Fatalf("negative-weight total = %v, want 0", got)
	}
}

// Property: for random DAGs and random positive weights, the critical path
// (a) is a real dependency chain, (b) has length ≥ the max single weight,
// (c) has length ≤ total weight, and (d) with unit weights equals height.
func TestCriticalPathProperties(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%60 + 1
		rng := rand.New(rand.NewPCG(seed, 21))
		g := New()
		data := []string{"a", "b", "c", "d"}
		weights := make(map[int]float64)
		var maxW float64
		for i := 0; i < n; i++ {
			params := []Param{
				{Data: g.Datum(data[rng.IntN(len(data))]), Dir: Direction(rng.IntN(3))},
			}
			task := g.Add("t", params...)
			w := rng.Float64()*5 + 0.1
			weights[task.ID] = w
			if w > maxW {
				maxW = w
			}
		}
		wfn := func(t *Task) float64 { return weights[t.ID] }
		path, length := g.CriticalPath(wfn)
		if length < maxW-1e-9 || length > g.TotalWeight(wfn)+1e-9 {
			return false
		}
		// Path is a chain: each element depends on the previous.
		var sum float64
		for i, id := range path {
			sum += weights[id]
			if i == 0 {
				continue
			}
			found := false
			for _, d := range g.Task(id).Deps() {
				if d == path[i-1] {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		if sum < length-1e-9 || sum > length+1e-9 {
			return false
		}
		_, unitLen := g.CriticalPath(unit)
		return int(unitLen) == g.MaxHeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
