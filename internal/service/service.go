// Package service runs the cluster as an online multi-tenant service: a
// stream of workflows arrives over virtual time on one shared simulated
// cluster, and the outcome is service-level statistics — queue wait,
// response time and slowdown percentiles per tenant — rather than a
// single workflow's makespan.
//
// Arrivals are generated per tenant from either a seeded Poisson process
// or a caller-supplied interarrival trace. Each tenant's Poisson draws
// come from its own PCG stream keyed on (Seed, tenant index), so adding a
// tenant or changing one tenant's rate never shifts another tenant's
// schedule — the same replayable-stream discipline the fault injector
// uses. Slowdown is measured against the workflow's isolated makespan
// (its makespan on an otherwise empty, fault-free cluster), the standard
// service-quality metric of the scheduling literature: 1.0 means
// contention cost nothing.
package service

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"wfsim/internal/faults"
	"wfsim/internal/metrics"
	"wfsim/internal/runtime"
)

// arrivalStream is the PCG stream-ID base for tenant arrival processes;
// tenant i draws from stream arrivalStream+i. Distinct from the fault
// injector's stream IDs so faults and arrivals never share a sequence.
const arrivalStream = 0xa221

// Tenant describes one workload stream sharing the cluster.
type Tenant struct {
	// Name labels the tenant in reports; defaults to "tenant<i>".
	Name string
	// Weight is the tenant's fair-share weight at the dispatch gate
	// (non-positive = 1).
	Weight float64
	// Quota caps the tenant's concurrently admitted tasks (0 = unlimited).
	Quota int
	// Rate is the Poisson arrival rate in workflows per virtual second.
	// Ignored when Interarrival is set.
	Rate float64
	// Interarrival optionally replaces the Poisson process with an
	// explicit trace: Interarrival[k] is the gap before the k-th arrival
	// (the first gap is measured from instant 0). Must cover Count gaps.
	Interarrival []float64
	// Count is the number of workflows the tenant submits.
	Count int
	// Build constructs the k-th workflow (k in [0, Count)). It is called
	// once per arrival before the simulation starts, so it may return the
	// same workflow object every time — sessions never mutate it.
	Build func(k int) (*runtime.Workflow, error)
	// Baseline is the workflow's isolated makespan used as the slowdown
	// denominator. Zero means "measure it": the service runs Build(0)
	// alone on an empty fault-free cluster first.
	Baseline float64
}

// Config parameterizes one service run.
type Config struct {
	// Sim is the shared cluster's configuration (topology, storage,
	// policy, device, faults).
	Sim runtime.SimConfig
	// Seed feeds the per-tenant arrival streams.
	Seed uint64
	// Tenants are the workload streams.
	Tenants []Tenant
}

// TenantReport is one tenant's service-level outcome.
type TenantReport struct {
	Name      string
	Workflows int
	Tasks     int
	// QueueWait is the per-task readiness-to-placement distribution.
	QueueWait metrics.Summary
	// Response is the per-workflow submit-to-finish distribution.
	Response metrics.Summary
	// Slowdown is Response normalized by the isolated baseline.
	Slowdown metrics.Summary
	// Baseline is the slowdown denominator used.
	Baseline float64
}

// Result is the outcome of a service run.
type Result struct {
	// Horizon is the completion instant of the last workflow.
	Horizon float64
	// CoreUtilization and GPUUtilization are mean busy fractions over the
	// horizon.
	CoreUtilization float64
	GPUUtilization  float64
	// Tenants holds one report per configured tenant, in tenant order.
	Tenants []TenantReport
	// Faults reports failure-injection activity across the whole stream.
	Faults runtime.FaultStats
}

func (c Config) validate() error {
	if len(c.Tenants) == 0 {
		return errors.New("service: no tenants configured")
	}
	for i, t := range c.Tenants {
		if t.Count <= 0 {
			return fmt.Errorf("service: tenant %d has Count %d, must be positive", i, t.Count)
		}
		if t.Build == nil {
			return fmt.Errorf("service: tenant %d has no Build function", i)
		}
		if len(t.Interarrival) > 0 {
			if len(t.Interarrival) < t.Count {
				return fmt.Errorf("service: tenant %d trace has %d gaps for %d arrivals",
					i, len(t.Interarrival), t.Count)
			}
			for k, g := range t.Interarrival[:t.Count] {
				if !(g >= 0) || math.IsInf(g, 1) {
					return fmt.Errorf("service: tenant %d interarrival[%d] = %v, must be finite and non-negative", i, k, g)
				}
			}
		} else if t.Rate <= 0 {
			return fmt.Errorf("service: tenant %d needs a positive Rate or an Interarrival trace", i)
		}
	}
	return nil
}

// arrivalTimes precomputes tenant i's absolute arrival instants: the
// cumulative trace when given, otherwise seeded exponential gaps. Drawing
// everything up front keeps arrival randomness strictly ordered by
// (tenant, k), independent of simulation interleaving.
func arrivalTimes(t Tenant, seed uint64, tenantIdx int) []float64 {
	out := make([]float64, t.Count)
	at := 0.0
	if len(t.Interarrival) > 0 {
		for k := 0; k < t.Count; k++ {
			at += t.Interarrival[k]
			out[k] = at
		}
		return out
	}
	rng := rand.New(rand.NewPCG(seed, arrivalStream+uint64(tenantIdx)))
	for k := 0; k < t.Count; k++ {
		at += rng.ExpFloat64() / t.Rate
		out[k] = at
	}
	return out
}

// measureBaseline runs one workflow alone on an empty fault-free cluster
// and returns its makespan — the slowdown denominator.
func measureBaseline(t Tenant, sim runtime.SimConfig) (float64, error) {
	wf, err := t.Build(0)
	if err != nil {
		return 0, fmt.Errorf("service: baseline build: %w", err)
	}
	iso := sim
	iso.Faults = faults.Config{}
	res, err := runtime.RunSim(wf, iso)
	if err != nil {
		return 0, fmt.Errorf("service: baseline run: %w", err)
	}
	return res.Makespan, nil
}

// Run executes the configured arrival streams on one shared cluster and
// returns per-tenant service statistics. Everything is deterministic in
// (Config, Seed): two identical calls produce identical results.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	specs := make([]runtime.TenantSpec, len(cfg.Tenants))
	baselines := make([]float64, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		specs[i] = runtime.TenantSpec{Weight: t.Weight, Quota: t.Quota}
		baselines[i] = t.Baseline
		if baselines[i] == 0 {
			b, err := measureBaseline(t, cfg.Sim)
			if err != nil {
				return nil, err
			}
			baselines[i] = b
		}
	}

	cs, err := runtime.NewClusterSim(cfg.Sim, specs)
	if err != nil {
		return nil, err
	}
	svc := metrics.NewServiceStats(len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		tenant, base := i, baselines[i]
		for k, at := range arrivalTimes(t, cfg.Seed, i) {
			wf, err := t.Build(k)
			if err != nil {
				return nil, fmt.Errorf("service: tenant %d workflow %d: %w", i, k, err)
			}
			err = cs.Submit(tenant, wf, at, func(r runtime.WorkflowResult) {
				resp := r.Finished - r.Submitted
				svc.ObserveWorkflow(tenant, resp, resp/base, r.Collector)
			})
			if err != nil {
				return nil, err
			}
		}
	}
	if err := cs.Run(); err != nil {
		return nil, err
	}

	res := &Result{
		Horizon: cs.Now(),
		Tenants: make([]TenantReport, len(cfg.Tenants)),
		Faults:  cs.FaultStats(),
	}
	res.CoreUtilization, res.GPUUtilization = cs.Utilization()
	for i, t := range cfg.Tenants {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("tenant%d", i)
		}
		ten := svc.Tenant(i)
		res.Tenants[i] = TenantReport{
			Name:      name,
			Workflows: ten.Workflows,
			Tasks:     ten.Tasks,
			QueueWait: ten.QueueWaitSummary(),
			Response:  ten.ResponseSummary(),
			Slowdown:  ten.SlowdownSummary(),
			Baseline:  baselines[i],
		}
	}
	return res, nil
}
