package wfsim_test

import (
	"runtime"
	"testing"

	"wfsim"
)

// simAllocs returns the allocations of one full build+simulate cycle of a
// 64-block K-means with the given iteration count and environment,
// averaged over a few runs.
func simAllocs(t *testing.T, iterations int, cfg wfsim.SimConfig) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		wf, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
			Dataset: wfsim.Datasets.KMeansSmall, Grid: 64, Clusters: 10,
			Iterations: iterations,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wfsim.RunSim(wf, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSimAllocBudget is the hot-path allocation-regression guard: it
// measures the marginal allocations per simulated task — the difference
// between a deep and a shallow run of the same workflow shape, so
// fixed per-run costs (cluster construction, collector buffer, coroutine
// warm-up) cancel out — and fails if the hot path regresses past a small
// fixed budget.
//
// Measured at 0.20 allocations per task (64 blocks), and none of them is
// per task: about 4 per Lloyd iteration come from the build (the next
// centers' name, the partial-sum range record, amortized table growth;
// 0.07 per task, see TestBuildAllocBudget) and about 8 per iteration from
// the simulation, spread over the iteration's 65 tasks. The budget leaves
// headroom for noise, not for regressions: if this fails, something on the
// per-task path started allocating.
//
// Both environments must hold the budget: the default shared-disk FIFO
// path, and the local-disk locality path that exercises the placement
// scratch and the storage location table. In particular the fault-injection
// machinery must stay free on fault-free runs — attempt buffers and
// recovery bookkeeping are only allocated when SimConfig.Faults is enabled.
func TestSimAllocBudget(t *testing.T) {
	const (
		shallowIters = 2
		deepIters    = 12
		grid         = 64
		budget       = 6.0 // marginal allocs per task, ~5× observed
	)
	configs := []struct {
		name string
		cfg  wfsim.SimConfig
	}{
		{"shared-fifo-gpu", wfsim.SimConfig{Device: wfsim.GPU}},
		{"local-locality-gpu", wfsim.SimConfig{
			Device: wfsim.GPU, Storage: wfsim.LocalDisk, Policy: wfsim.DataLocality,
		}},
		// The lookahead path allocates its rank tables once per workflow at
		// submission; the per-task dispatch (rank pop + EFT placement) must
		// stay free, so the marginal budget holds unchanged.
		{"shared-heft-cpu", wfsim.SimConfig{
			Device: wfsim.CPU, Policy: wfsim.HEFT,
		}},
		{"local-worksteal-gpu", wfsim.SimConfig{
			Device: wfsim.GPU, Storage: wfsim.LocalDisk, Policy: wfsim.WorkStealing,
		}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			// Warm the engine's global coroutine pool and the allocator so
			// both measured runs see identical steady-state conditions.
			simAllocs(t, deepIters, c.cfg)

			shallow := simAllocs(t, shallowIters, c.cfg)
			deep := simAllocs(t, deepIters, c.cfg)
			marginalTasks := float64((grid + 1) * (deepIters - shallowIters))
			perTask := (deep - shallow) / marginalTasks
			t.Logf("allocs: shallow=%.0f deep=%.0f marginal/task=%.2f (budget %v)",
				shallow, deep, perTask, budget)
			if perTask > budget {
				t.Errorf("hot path allocates %.2f allocations per task, budget %v", perTask, budget)
			}
		})
	}

	// Streaming mode must hold the same budget with the same cancellation
	// trick: a shared Aggregates sink and substrate arena persist across
	// runs (the sweep-worker usage pattern), so in steady state the
	// simulate path allocates nothing at all and the marginal cost is the
	// build side's datum strings. This is the regime the million-task
	// benchmark depends on — a collector would retain one record per task
	// stage, while the sink's footprint stays O(task types), independent of
	// depth.
	t.Run("streaming-sink-arena", func(t *testing.T) {
		var arena wfsim.Arena
		agg := wfsim.NewAggregates()
		streamAllocs := func(iterations int) float64 {
			return testing.AllocsPerRun(3, func() {
				wf, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
					Dataset: wfsim.Datasets.KMeansSmall, Grid: grid, Clusters: 10,
					Iterations: iterations,
				})
				if err != nil {
					t.Fatal(err)
				}
				agg.Reset()
				res, err := wfsim.RunSim(wf, wfsim.SimConfig{
					Device: wfsim.GPU, Storage: wfsim.LocalDisk, Policy: wfsim.DataLocality,
					Sink: agg, Arena: &arena,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Collector != nil {
					t.Fatal("streaming run retained a collector")
				}
			})
		}
		streamAllocs(deepIters)
		shallow := streamAllocs(shallowIters)
		deep := streamAllocs(deepIters)
		marginalTasks := float64((grid + 1) * (deepIters - shallowIters))
		perTask := (deep - shallow) / marginalTasks
		t.Logf("allocs: shallow=%.0f deep=%.0f marginal/task=%.2f (budget %v)",
			shallow, deep, perTask, budget)
		if perTask > budget {
			t.Errorf("streaming hot path allocates %.2f allocations per task, budget %v", perTask, budget)
		}
	})

	// The multi-tenant substrate must hold the same budget: the fair-share
	// gate, tenant accounting and per-session indirection may not put
	// allocations on the per-task path. Two tenants submit overlapping
	// K-means workflows onto one shared cluster; per-session fixed costs
	// (session structs, collectors, quota bookkeeping) cancel between the
	// shallow and deep measurement exactly like per-run costs do above.
	t.Run("two-tenant-multiplexed", func(t *testing.T) {
		const (
			shallowIters = 2
			deepIters    = 12
			grid         = 64
			budget       = 6.0
		)
		multiAllocs := func(iterations int) float64 {
			return testing.AllocsPerRun(3, func() {
				cs, err := wfsim.NewClusterSim(wfsim.SimConfig{Device: wfsim.GPU},
					[]wfsim.TenantSpec{{Weight: 2}, {Weight: 1}})
				if err != nil {
					t.Fatal(err)
				}
				for tenant := 0; tenant < 2; tenant++ {
					wf, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
						Dataset: wfsim.Datasets.KMeansSmall, Grid: grid, Clusters: 10,
						Iterations: iterations,
					})
					if err != nil {
						t.Fatal(err)
					}
					err = cs.Submit(tenant, wf, float64(tenant)*0.5, func(wfsim.WorkflowResult) {})
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := cs.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		multiAllocs(deepIters)
		shallow := multiAllocs(shallowIters)
		deep := multiAllocs(deepIters)
		marginalTasks := float64(2 * (grid + 1) * (deepIters - shallowIters))
		perTask := (deep - shallow) / marginalTasks
		t.Logf("allocs: shallow=%.0f deep=%.0f marginal/task=%.2f (budget %v)",
			shallow, deep, perTask, budget)
		if perTask > budget {
			t.Errorf("multi-tenant hot path allocates %.2f allocations per task, budget %v", perTask, budget)
		}
	})
}

// buildCost returns the heap allocations and bytes of one K-means build at
// the given grid and iteration count, averaged over a few builds.
func buildCost(t *testing.T, grid int64, iterations int) (mallocs, bytes float64) {
	t.Helper()
	const runs = 3
	build := func() {
		if _, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
			Dataset: wfsim.Datasets.KMeansSmall, Grid: grid, Clusters: 10,
			Iterations: iterations,
		}); err != nil {
			t.Fatal(err)
		}
	}
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs,
		float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestBuildAllocBudget is the DAG-build counterpart of TestSimAllocBudget:
// the marginal heap allocations and bytes per task of building a 256-block
// K-means, between 2 and 12 iterations so per-build fixed costs cancel.
//
// An ID-first build allocates nothing per task: tasks, parameters,
// dependency lists and per-datum tables come from slabs, each iteration's
// partial sums are one reserved ID range whose names are never rendered,
// and every partial_sum shares one stored TaskSpec. What remains per task
// is its share of those slabs, about 240 bytes: the Task itself (136 B),
// 12 B per parameter, a spec index and one datum's bookkeeping. Building
// one name string per partial sum, one map entry per datum or one TaskSpec
// copy per task (about 1 allocation and 495 bytes per task) fails both
// budgets.
func TestBuildAllocBudget(t *testing.T) {
	const (
		grid         = 256
		shallowIters = 2
		deepIters    = 12
		mallocBudget = 0.1   // per task
		bytesBudget  = 320.0 // per task
	)
	m0, b0 := buildCost(t, grid, shallowIters)
	m1, b1 := buildCost(t, grid, deepIters)
	tasks := float64((grid + 1) * (deepIters - shallowIters))
	mallocs, bytes := (m1-m0)/tasks, (b1-b0)/tasks
	t.Logf("marginal per task: %.3f mallocs, %.0f bytes (budgets %v, %v)",
		mallocs, bytes, mallocBudget, bytesBudget)
	if mallocs > mallocBudget {
		t.Errorf("build allocates %.3f times per task, budget %v", mallocs, mallocBudget)
	}
	if bytes > bytesBudget {
		t.Errorf("build allocates %.0f bytes per task, budget %v", bytes, bytesBudget)
	}
}
