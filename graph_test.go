package wfsim_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"wfsim/internal/dag"
)

// refGraph is a brute-force model of dag.Graph: a task's dependencies are
// found by scanning every earlier task, newest first, for the last writer
// of each datum the task reads or writes (RAW and WAW; WAR makes no
// edge), and every derived table is recomputed from scratch on demand.
type refGraph struct {
	names  []string
	params [][]dag.Param
	deps   [][]int32 // ascending
	level  []int
}

func (r *refGraph) add(name string, params []dag.Param) {
	var deps []int32
	for _, p := range params {
		if !p.Reads() && !p.Writes() {
			continue
		}
		for j := len(r.params) - 1; j >= 0; j-- {
			if slices.ContainsFunc(r.params[j], func(q dag.Param) bool { return q.Data == p.Data && q.Writes() }) {
				if !slices.Contains(deps, int32(j)) {
					deps = append(deps, int32(j))
				}
				break
			}
		}
	}
	slices.Sort(deps)
	level := 0
	for _, d := range deps {
		level = max(level, r.level[d]+1)
	}
	r.names = append(r.names, name)
	r.params = append(r.params, slices.Clone(params))
	r.deps = append(r.deps, deps)
	r.level = append(r.level, level)
}

func (r *refGraph) succs() [][]int32 {
	out := make([][]int32, len(r.deps))
	for id, deps := range r.deps {
		for _, d := range deps {
			out[d] = append(out[d], int32(id))
		}
	}
	return out
}

func (r *refGraph) levels() [][]int32 {
	var out [][]int32
	for id, l := range r.level {
		for len(out) <= l {
			out = append(out, nil)
		}
		out[l] = append(out[l], int32(id))
	}
	return out
}

// criticalPath is the longest weighted path by dynamic programming over
// the reference edges, breaking ties as dag.Graph.CriticalPath documents:
// the earliest predecessor and the earliest end task win.
func (r *refGraph) criticalPath(weight func(int) float64) ([]int, float64) {
	if len(r.deps) == 0 {
		return nil, 0
	}
	dist := make([]float64, len(r.deps))
	prev := make([]int, len(r.deps))
	best, end := -1.0, -1
	for id, deps := range r.deps {
		w := max(weight(id), 0)
		dist[id], prev[id] = w, -1
		for _, d := range deps {
			if dist[d]+w > dist[id] {
				dist[id], prev[id] = dist[d]+w, int(d)
			}
		}
		if dist[id] > best {
			best, end = dist[id], id
		}
	}
	var path []int
	for id := end; id >= 0; id = prev[id] {
		path = append([]int{id}, path...)
	}
	return path, best
}

// weightOf is a deterministic, mostly tie-free task weight.
func weightOf(id int) float64 { return 1 + float64((id*7919)%101)/37 }

// checkGraph compares every query of g against the reference.
func checkGraph(t *testing.T, label string, g *dag.Graph, ref *refGraph) {
	t.Helper()
	if g.Len() != len(ref.deps) {
		t.Fatalf("%s: Len = %d, want %d", label, g.Len(), len(ref.deps))
	}
	succs, levels := ref.succs(), ref.levels()
	var roots []int
	width := 0
	for _, lvl := range levels {
		width = max(width, len(lvl))
	}
	for id := range ref.deps {
		if len(ref.deps[id]) == 0 {
			roots = append(roots, id)
		}
		if got := g.Deps(id); !slices.Equal(got, ref.deps[id]) {
			t.Fatalf("%s: Deps(%d) = %v, want %v", label, id, got, ref.deps[id])
		}
		if got := g.Succs(id); !slices.Equal(got, succs[id]) {
			t.Fatalf("%s: Succs(%d) = %v, want %v", label, id, got, succs[id])
		}
		if got := g.Level(id); got != ref.level[id] {
			t.Fatalf("%s: Level(%d) = %d, want %d", label, id, got, ref.level[id])
		}
		v := g.Task(id)
		if v.ID != id || v.Name != ref.names[id] || v.Level != ref.level[id] || !slices.Equal(v.Params, ref.params[id]) {
			t.Fatalf("%s: Task(%d) = %+v, want %s level %d params %v", label, id, v, ref.names[id], ref.level[id], ref.params[id])
		}
	}
	if got := g.Levels(); !slices.EqualFunc(got, levels, slices.Equal) {
		t.Fatalf("%s: Levels = %v, want %v", label, got, levels)
	}
	if g.MaxWidth() != width || g.MaxHeight() != len(levels) {
		t.Fatalf("%s: width %d height %d, want %d %d", label, g.MaxWidth(), g.MaxHeight(), width, len(levels))
	}
	if got := g.Roots(); !slices.Equal(got, roots) {
		t.Fatalf("%s: Roots = %v, want %v", label, got, roots)
	}
	gp, gl := g.CriticalPath(weightOf)
	rp, rl := ref.criticalPath(weightOf)
	if gl != rl || !slices.Equal(gp, rp) {
		t.Fatalf("%s: CriticalPath = %v, %v; want %v, %v", label, gp, gl, rp, rl)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestGraphMatchesReference checks the compact graph against the
// brute-force reference on every builder of TestGoldenDatumNames and on
// seeded random Add sequences. The random sequences query between Adds,
// so a successor or level table left stale by an Add is caught, and they
// hold Deps and Params views across later Adds, which the accessors
// document as surviving.
func TestGraphMatchesReference(t *testing.T) {
	for _, c := range datumNameCases(t) {
		g, ref := c.wf.Graph, &refGraph{}
		for id := range g.Len() {
			ids, dirs := g.Params(id)
			params := make([]dag.Param, len(ids))
			for i := range ids {
				params[i] = dag.Param{Data: ids[i], Dir: dirs[i]}
			}
			ref.add(g.Name(id), params)
		}
		checkGraph(t, c.name, g, ref)
	}

	names := []string{"a", "b", "c"}
	for seed := uint64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 16))
		g, ref := dag.New(), &refGraph{}
		data := make([]int32, 2+rng.IntN(10))
		for i := range data {
			data[i] = g.Datum(names[i%len(names)] + string(rune('0'+i)))
		}
		type held struct {
			id     int
			deps   []int32
			params []int32
		}
		var views []held
		n := 1 + rng.IntN(150)
		for i := 0; i < n; i++ {
			params := make([]dag.Param, rng.IntN(5))
			for j := range params {
				params[j] = dag.Param{Data: data[rng.IntN(len(data))], Dir: dag.Direction(rng.IntN(3))}
			}
			name := names[rng.IntN(len(names))]
			id := g.Add(name, params...)
			ref.add(name, params)
			if rng.IntN(4) == 0 {
				checkGraph(t, "random", g, ref)
				views = append(views, held{id, g.Deps(id), g.DataIDs(id)})
			}
		}
		checkGraph(t, "random", g, ref)
		for _, v := range views {
			ids := make([]int32, len(ref.params[v.id]))
			for i, p := range ref.params[v.id] {
				ids[i] = p.Data
			}
			if !slices.Equal(v.deps, ref.deps[v.id]) || !slices.Equal(v.params, ids) {
				t.Fatalf("seed %d: views of task %d changed after later Adds: deps %v params %v", seed, v.id, v.deps, v.params)
			}
		}
	}
}
