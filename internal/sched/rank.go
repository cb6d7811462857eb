package sched

import "wfsim/internal/dag"

// Lookahead rank computation for the priority schedulers. Ranks are
// computed once per workflow (task IDs are assigned in generation order,
// which dag.Graph guarantees is topological) and stamped onto TaskRefs by
// the runtime, so the dispatch path never walks the DAG.

// Ranks returns HEFT's upward rank for every task:
//
//	rank(t) = w(t) + max over successors s of (comm(t, s) + rank(s))
//
// where w is the task's mean execution cost across the (possibly
// heterogeneous) cluster and comm prices the data handed from t to s. A
// nil comm means zero transfer cost, under which the rank is the task's
// bottom level. One reverse-topological pass over the successor table,
// O(V+E), with tasks named by ID.
func Ranks(g *dag.Graph, weight func(id int) float64, comm func(from, to int) float64) []float64 {
	ranks := make([]float64, g.Len())
	for id := g.Len() - 1; id >= 0; id-- {
		var below float64
		for _, succ := range g.Succs(id) {
			r := ranks[succ]
			if comm != nil {
				r += comm(id, int(succ))
			}
			if r > below {
				below = r
			}
		}
		ranks[id] = weight(id) + below
	}
	return ranks
}

// BLevels returns every task's bottom level: the weight of the heaviest
// weight-summed path from the task to any sink, inclusive of the task
// itself. A source task on the critical path therefore carries exactly
// the Graph.CriticalPath length under the same weight function. It is
// Ranks with no transfer cost, over task views.
func BLevels(g *dag.Graph, weight func(*dag.Task) float64) []float64 {
	return UpwardRanks(g, weight, nil)
}

// UpwardRanks is Ranks over task views, for callers that price tasks as
// *dag.Task values; a nil comm reduces it exactly to BLevels, the
// property the scheduler tests pin. Each callback receives a view that is
// valid only for the duration of the call.
func UpwardRanks(g *dag.Graph, weight func(*dag.Task) float64, comm func(from, to *dag.Task) float64) []float64 {
	var wv dag.Task
	byID := func(id int) float64 { return weight(g.View(id, &wv)) }
	if comm == nil {
		return Ranks(g, byID, nil)
	}
	var from, to dag.Task
	last := -1
	edge := func(f, t int) float64 {
		if f != last { // a producer's edges are priced consecutively
			g.View(f, &from)
			last = f
		}
		return comm(&from, g.View(t, &to))
	}
	return Ranks(g, byID, edge)
}
