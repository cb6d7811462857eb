package service

import (
	"fmt"
	"math"
	"testing"

	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/runtime"
	"wfsim/internal/sched"
)

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

// buildFan returns a Build function producing an n-task fan workflow.
func buildFan(n int) func(int) (*runtime.Workflow, error) {
	return func(int) (*runtime.Workflow, error) {
		wf := runtime.NewWorkflow("fan")
		wf.SetSize("in", 1e6)
		for i := 0; i < n; i++ {
			out := fmt.Sprintf("out%d", i)
			wf.SetSize(out, 1e6)
			wf.AddTask("work", runtime.TaskSpec{Profile: testProf},
				dag.Param{Data: wf.Datum("in"), Dir: dag.In},
				dag.Param{Data: wf.Datum(out), Dir: dag.Out})
		}
		return wf, nil
	}
}

func testConfig(seed uint64) Config {
	return Config{
		Sim: runtime.SimConfig{
			Cluster: cluster.Spec{Name: "mini", Nodes: 2, CoresPerNode: 4, GPUsPerNode: 2},
			Device:  costmodel.GPU, Policy: sched.Locality,
		},
		Seed: seed,
		Tenants: []Tenant{
			{Name: "analytics", Weight: 2, Rate: 1.0, Count: 4, Build: buildFan(12)},
			{Name: "batch", Weight: 1, Quota: 6, Rate: 0.5, Count: 3, Build: buildFan(8)},
		},
	}
}

// TestServiceDeterministic: two identical seeded runs produce identical
// service statistics, bit for bit — the arrival streams, the dispatch
// gate and the percentile estimators are all pure functions of the seed.
func TestServiceDeterministic(t *testing.T) {
	a, err := Run(testConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	if a.Horizon != b.Horizon || a.CoreUtilization != b.CoreUtilization {
		t.Fatalf("horizons diverged: %v/%v vs %v/%v",
			a.Horizon, a.CoreUtilization, b.Horizon, b.CoreUtilization)
	}
	for i := range a.Tenants {
		if a.Tenants[i] != b.Tenants[i] {
			t.Errorf("tenant %d reports diverged:\n%+v\n%+v", i, a.Tenants[i], b.Tenants[i])
		}
	}
	// A different seed shifts the Poisson arrivals and thus the horizon.
	c, err := Run(testConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	if c.Horizon == a.Horizon {
		t.Error("different seeds produced identical horizons — arrivals are not seeded")
	}
}

// TestServiceReportShape checks the per-tenant accounting: every submitted
// workflow completes, task counts line up, and slowdown is ≥ 1 within
// estimator noise (contention can only stretch a workflow).
func TestServiceReportShape(t *testing.T) {
	res, err := Run(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	wantTasks := []int{4 * 12, 3 * 8}
	for i, ten := range res.Tenants {
		cfgT := testConfig(5).Tenants[i]
		if ten.Workflows != cfgT.Count {
			t.Errorf("%s: %d workflows completed, want %d", ten.Name, ten.Workflows, cfgT.Count)
		}
		if ten.Tasks != wantTasks[i] {
			t.Errorf("%s: %d tasks observed, want %d", ten.Name, ten.Tasks, wantTasks[i])
		}
		if ten.Baseline <= 0 {
			t.Errorf("%s: baseline %v not measured", ten.Name, ten.Baseline)
		}
		if ten.Slowdown.Min < 0.999 {
			t.Errorf("%s: slowdown min %v < 1 — response beat the isolated baseline", ten.Name, ten.Slowdown.Min)
		}
		if ten.Response.N != cfgT.Count || math.IsNaN(ten.Response.P99) {
			t.Errorf("%s: response summary %+v malformed", ten.Name, ten.Response)
		}
		if ten.QueueWait.N != wantTasks[i] {
			t.Errorf("%s: queue-wait N %d, want one sample per task (%d)",
				ten.Name, ten.QueueWait.N, wantTasks[i])
		}
	}
	if res.Horizon <= 0 {
		t.Errorf("horizon %v", res.Horizon)
	}
}

// TestServiceTraceArrivals: an explicit interarrival trace overrides the
// Poisson process and pins exact arrival instants (observable through the
// response time of a lone workflow on an empty cluster).
func TestServiceTraceArrivals(t *testing.T) {
	cfg := testConfig(1)
	cfg.Tenants = cfg.Tenants[:1]
	cfg.Tenants[0].Interarrival = []float64{5, 100, 100, 100} // far apart: zero contention
	cfg.Tenants[0].Rate = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ten := res.Tenants[0]
	// Every workflow runs alone, so each response equals the baseline and
	// slowdown collapses to 1.
	if ten.Slowdown.Max > 1.0001 || ten.Slowdown.Min < 0.9999 {
		t.Errorf("spread-out arrivals still contend: slowdown [%v, %v]", ten.Slowdown.Min, ten.Slowdown.Max)
	}
	wantHorizon := 5 + 100 + 100 + 100 + ten.Baseline
	if math.Abs(res.Horizon-wantHorizon) > 1e-9 {
		t.Errorf("horizon %v, want last arrival + baseline = %v", res.Horizon, wantHorizon)
	}
}

// TestServiceExplicitBaseline: a caller-supplied baseline skips the
// isolated measurement run and feeds the slowdown denominator directly.
func TestServiceExplicitBaseline(t *testing.T) {
	cfg := testConfig(1)
	cfg.Tenants = cfg.Tenants[:1]
	cfg.Tenants[0].Interarrival = []float64{0, 50, 50, 50}
	cfg.Tenants[0].Baseline = 2.0 // deliberately wrong: slowdown scales by it
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ten := res.Tenants[0]
	if ten.Baseline != 2.0 {
		t.Fatalf("baseline %v, want the supplied 2.0", ten.Baseline)
	}
	if math.Abs(ten.Slowdown.Mean-ten.Response.Mean/2.0) > 1e-12 {
		t.Errorf("slowdown mean %v != response mean %v / 2", ten.Slowdown.Mean, ten.Response.Mean)
	}
}

func TestServiceConfigErrors(t *testing.T) {
	bad := []Config{
		{},
		{Tenants: []Tenant{{Count: 0, Rate: 1, Build: buildFan(1)}}},
		{Tenants: []Tenant{{Count: 1, Rate: 1}}},                                           // no Build
		{Tenants: []Tenant{{Count: 1, Build: buildFan(1)}}},                                // no rate or trace
		{Tenants: []Tenant{{Count: 3, Interarrival: []float64{1, 2}, Build: buildFan(1)}}}, // short trace
		{Tenants: []Tenant{{Count: 1, Interarrival: []float64{-1}, Build: buildFan(1)}}},   // negative gap
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
