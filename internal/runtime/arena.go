package runtime

import "wfsim/internal/sim"

// Arena recycles a simulated run's substrate allocations across trials:
// the engine's event-node slabs, heap and ring storage (sim.Arena), the
// pooled task lifecycles (attempts), the per-task dependency counters, and
// the pool of ready tasks' input lists.
// A sweep worker that owns an Arena pays these allocations on its first
// trial only.
//
// An Arena may serve one run at a time — sharing one across concurrent
// RunSim calls is a data race. internal/runner hands each worker its own
// per-worker state for exactly this reason. Everything an Arena retains
// is either re-stamped (event nodes) or zeroed (dependency counters) on
// reuse; see DESIGN.md §12 for the full lifetime rules.
type Arena struct {
	nodes     sim.Arena
	attempts  []*attempt
	remaining []int32
	inputs    inputPool
	load      []int
}

// grabRemaining returns a zeroed dependency-counter slice of length n,
// reusing the arena's buffer when it is large enough.
func (a *Arena) grabRemaining(n int) []int32 {
	if cap(a.remaining) < n {
		a.remaining = make([]int32, n)
		return a.remaining
	}
	s := a.remaining[:n]
	clear(s)
	return s
}

// grabLoad returns a zeroed per-node load slice of length n.
func (a *Arena) grabLoad(n int) []int {
	if cap(a.load) < n {
		a.load = make([]int, n)
		return a.load
	}
	s := a.load[:n]
	clear(s)
	return s
}

// adoptAttempts hands the arena's pooled attempts to run r, re-bound to its
// engine.
func (a *Arena) adoptAttempts(r *simRun) []*attempt {
	pool := a.attempts
	a.attempts = nil
	for _, at := range pool {
		at.r = r
		r.eng.Bind(&at.cont, at.stepFn)
	}
	return pool
}

// keepAttempts takes a finished run's pooled attempts for the next trial,
// dropping their reference to the run.
func (a *Arena) keepAttempts(pool []*attempt) {
	for _, at := range pool {
		at.r = nil
	}
	a.attempts = pool
}
