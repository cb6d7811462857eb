package runtime

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/faults"
	"wfsim/internal/metrics"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
)

func traceCSV(t *testing.T, c *metrics.Collector) string {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestClusterSimSingleTenantMatchesRunSim pins that RunSim is one session
// on the same fair-share gate ClusterSim drives: one tenant, one workflow
// arriving at 0, produces the exact trace RunSim produces, for every
// policy: entering through an arrival event, with storage sized lazily,
// changes nothing.
func TestClusterSimSingleTenantMatchesRunSim(t *testing.T) {
	for _, pol := range sched.Policies() {
		cfg := SimConfig{Device: costmodel.GPU, Policy: pol, Storage: storage.Local, Seed: 7}
		ref, err := RunSim(gridWorkflow(4, 16, testProf), cfg)
		if err != nil {
			t.Fatalf("%v: RunSim: %v", pol, err)
		}
		cs, err := NewClusterSim(cfg, []TenantSpec{{}})
		if err != nil {
			t.Fatalf("%v: NewClusterSim: %v", pol, err)
		}
		var got *WorkflowResult
		if err := cs.Submit(0, gridWorkflow(4, 16, testProf), 0,
			func(r WorkflowResult) { got = &r }); err != nil {
			t.Fatalf("%v: Submit: %v", pol, err)
		}
		if err := cs.Run(); err != nil {
			t.Fatalf("%v: Run: %v", pol, err)
		}
		if got == nil {
			t.Fatalf("%v: completion callback never fired", pol)
		}
		if got.Finished != ref.Makespan {
			t.Errorf("%v: finished at %v, RunSim makespan %v", pol, got.Finished, ref.Makespan)
		}
		if a, b := traceCSV(t, got.Collector), traceCSV(t, ref.Collector); a != b {
			t.Errorf("%v: single-tenant ClusterSim trace diverges from RunSim", pol)
		}
	}
}

// runTwoTenants drives one seeded 2-tenant schedule: staggered arrivals of
// four workflows over a small cluster, returning the per-session traces
// (indexed by session) and the horizon.
func runTwoTenants(t *testing.T, fc faults.Config) ([]string, float64, FaultStats) {
	t.Helper()
	cfg := SimConfig{
		Cluster: cluster.Spec{Name: "mini", Nodes: 2, CoresPerNode: 4, GPUsPerNode: 2},
		Device:  costmodel.GPU, Policy: sched.Locality, Storage: storage.Local,
		Faults: fc,
	}
	cs, err := NewClusterSim(cfg, []TenantSpec{{Weight: 2}, {Weight: 1, Quota: 8}})
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]string, 4)
	done := 0
	onDone := func(r WorkflowResult) {
		traces[r.Session] = traceCSV(t, r.Collector)
		done++
	}
	subs := []struct {
		tenant int
		wf     *Workflow
		at     float64
	}{
		{0, gridWorkflow(3, 8, testProf), 0},
		{1, fanWorkflow(24, testProf), 0.25},
		{0, fanWorkflow(16, testProf), 0.5},
		{1, chainWorkflow(6, testProf), 0.75},
	}
	for _, s := range subs {
		if err := cs.Submit(s.tenant, s.wf, s.at, onDone); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Run(); err != nil {
		t.Fatal(err)
	}
	if done != len(subs) {
		t.Fatalf("%d of %d completion callbacks fired", done, len(subs))
	}
	return traces, cs.Now(), cs.FaultStats()
}

// TestClusterSimDeterministic is the acceptance check: a 2-tenant run on
// one shared cluster, same seed twice, produces byte-identical per-workflow
// traces — with fault injection off and on.
func TestClusterSimDeterministic(t *testing.T) {
	cases := []struct {
		name string
		fc   faults.Config
	}{
		{"fault-free", faults.Config{}},
		{"faulty", faults.Config{Seed: 3, NodeMTBF: 2.0, NodeMTTR: 0.3, TaskFailProb: 0.02}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr1, h1, st1 := runTwoTenants(t, c.fc)
			tr2, h2, st2 := runTwoTenants(t, c.fc)
			if h1 != h2 {
				t.Fatalf("horizons diverged: %v vs %v", h1, h2)
			}
			if st1 != st2 {
				t.Fatalf("fault stats diverged: %+v vs %+v", st1, st2)
			}
			for i := range tr1 {
				if tr1[i] != tr2[i] {
					t.Errorf("session %d trace diverged between identical runs", i)
				}
			}
			if c.name == "faulty" && st1.Crashes == 0 {
				t.Error("faulty case injected no crashes — schedule too mild to exercise recovery")
			}
		})
	}
}

// TestFairShareWeights pins the dispatch gate's weighted apportioning:
// with two identical backlogged workflows on a contended cluster, the
// heavier tenant finishes first, and flipping the weights flips the order.
func TestFairShareWeights(t *testing.T) {
	run := func(w0, w1 float64) (f0, f1 float64) {
		cfg := SimConfig{
			Cluster: cluster.Spec{Name: "tiny", Nodes: 1, CoresPerNode: 2},
			Device:  costmodel.CPU, Policy: sched.FIFO,
		}
		cs, err := NewClusterSim(cfg, []TenantSpec{{Weight: w0}, {Weight: w1}})
		if err != nil {
			t.Fatal(err)
		}
		fin := make([]float64, 2)
		onDone := func(r WorkflowResult) { fin[r.Tenant] = r.Finished }
		if err := cs.Submit(0, fanWorkflow(16, testProf), 0, onDone); err != nil {
			t.Fatal(err)
		}
		if err := cs.Submit(1, fanWorkflow(16, testProf), 0, onDone); err != nil {
			t.Fatal(err)
		}
		if err := cs.Run(); err != nil {
			t.Fatal(err)
		}
		return fin[0], fin[1]
	}
	f0, f1 := run(6, 1)
	if f0 >= f1 {
		t.Errorf("weight 6:1 — tenant 0 finished at %v, tenant 1 at %v; want tenant 0 first", f0, f1)
	}
	g0, g1 := run(1, 6)
	if g1 >= g0 {
		t.Errorf("weight 1:6 — tenant 1 finished at %v, tenant 0 at %v; want tenant 1 first", g1, g0)
	}
}

// TestAdmissionQuota pins quota semantics: a tenant with Quota 1 runs its
// independent tasks one at a time (response stretches accordingly), and
// every parked task is still admitted and completed.
func TestAdmissionQuota(t *testing.T) {
	run := func(quota int) float64 {
		cfg := SimConfig{Device: costmodel.CPU, Policy: sched.FIFO}
		cs, err := NewClusterSim(cfg, []TenantSpec{{Quota: quota}})
		if err != nil {
			t.Fatal(err)
		}
		var res WorkflowResult
		if err := cs.Submit(0, fanWorkflow(32, testProf), 0,
			func(r WorkflowResult) { res = r }); err != nil {
			t.Fatal(err)
		}
		if err := cs.Run(); err != nil {
			t.Fatal(err)
		}
		if res.Collector == nil || res.Tasks != 32 {
			t.Fatalf("incomplete result: %+v", res)
		}
		return res.Finished - res.Submitted
	}
	serialized, unlimited := run(1), run(0)
	// 32 independent tasks on 128 cores: quota 1 forces ~32 sequential
	// executions where unlimited runs them all in one wave.
	if serialized < 8*unlimited {
		t.Errorf("quota-1 response %v vs unlimited %v — quota did not serialize admission",
			serialized, unlimited)
	}
}

// TestClusterSimUsageErrors covers the API misuse surface.
func TestClusterSimUsageErrors(t *testing.T) {
	if _, err := NewClusterSim(SimConfig{}, nil); err == nil {
		t.Error("NewClusterSim with no tenants accepted")
	}
	cs, err := NewClusterSim(SimConfig{}, []TenantSpec{{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Submit(1, fanWorkflow(1, testProf), 0, nil); err == nil {
		t.Error("Submit to unknown tenant accepted")
	}
	// An instant the engine cannot schedule is a Submit error, not a
	// panic at Run.
	for _, at := range []float64{-1, math.Inf(-1), math.NaN(), math.Inf(1)} {
		if err := cs.Submit(0, fanWorkflow(1, testProf), at, nil); err == nil {
			t.Errorf("Submit at instant %v accepted", at)
		}
	}
	if err := cs.Run(); err == nil {
		t.Error("Run with no submissions accepted")
	}
	cs2, _ := NewClusterSim(SimConfig{}, []TenantSpec{{}})
	if err := cs2.Submit(0, fanWorkflow(1, testProf), 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := cs2.Run(); err != nil {
		t.Fatal(err)
	}
	if err := cs2.Submit(0, fanWorkflow(1, testProf), 0, nil); err == nil {
		t.Error("Submit after Run accepted")
	}
	if err := cs2.Run(); err == nil {
		t.Error("second Run accepted")
	}
}

// TestSimConfigValidate covers the explicit-rejection satellite: invalid
// cluster shapes, cost-model parameters, node speeds and out-of-range
// fault rates error out instead of being silently patched or ignored.
// RunSim and NewClusterSim share one resolution step, so every entry must
// be rejected by both, with the same message.
func TestSimConfigValidate(t *testing.T) {
	ok := fanWorkflow(1, testProf)
	badParams := costmodel.DefaultParams()
	badParams.SerialRate = 0
	mini := cluster.Spec{Name: "mini", Nodes: 2, CoresPerNode: 4, GPUsPerNode: 2}
	cases := []struct {
		name string
		cfg  SimConfig
		want string
	}{
		{"negative nodes", SimConfig{Cluster: cluster.Spec{Nodes: -1, CoresPerNode: 16}}, "cluster"},
		{"partial spec", SimConfig{Cluster: cluster.Spec{CoresPerNode: 16}}, "cluster"},
		{"zero cores", SimConfig{Cluster: cluster.Spec{Nodes: 4}}, "cluster"},
		{"negative MTBF", SimConfig{Faults: faults.Config{NodeMTBF: -1}}, "negative time constant"},
		{"fail prob over 1", SimConfig{Faults: faults.Config{TaskFailProb: 1.5}}, "TaskFailProb"},
		{"negative backoff", SimConfig{Faults: faults.Config{RetryBackoff: -0.1}}, "RetryBackoff"},
		{"straggler factor over 1", SimConfig{Faults: faults.Config{StragglerFactor: 2}}, "StragglerFactor"},
		{"bad node speed", SimConfig{NodeSpeed: []float64{1, 0, 1}}, "NodeSpeed"},
		{"node speed length", SimConfig{Cluster: mini, NodeSpeed: []float64{1, 1, 1}}, "NodeSpeed has 3 entries for 2 nodes"},
		{"default cluster speed length", SimConfig{NodeSpeed: []float64{1}}, "NodeSpeed has 1 entries"},
		{"invalid params", SimConfig{Params: &badParams}, "SerialRate"},
	}
	for _, c := range cases {
		_, runErr := RunSim(ok, c.cfg)
		_, csErr := NewClusterSim(c.cfg, []TenantSpec{{}})
		for _, e := range []struct {
			entry string
			err   error
		}{{"RunSim", runErr}, {"NewClusterSim", csErr}} {
			if e.err == nil {
				t.Errorf("%s: %s accepted", c.name, e.entry)
				continue
			}
			if !strings.Contains(e.err.Error(), c.want) {
				t.Errorf("%s: %s error %q does not mention %q", c.name, e.entry, e.err, c.want)
			}
		}
		if runErr != nil && csErr != nil && runErr.Error() != csErr.Error() {
			t.Errorf("%s: RunSim says %q, NewClusterSim says %q", c.name, runErr, csErr)
		}
	}
	// The zero config stays legal: defaults still apply.
	if _, err := RunSim(ok, SimConfig{}); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	if _, err := NewClusterSim(SimConfig{}, []TenantSpec{{}}); err != nil {
		t.Errorf("zero config rejected by NewClusterSim: %v", err)
	}
}
