package runtime

import (
	"errors"
	"fmt"
	"math"

	"wfsim/internal/metrics"
)

// TenantSpec configures one workload stream sharing the cluster.
type TenantSpec struct {
	// Weight is the tenant's share at the dispatch gate: grants are
	// apportioned proportionally to weights among backlogged tenants
	// (stride-style fair share). Non-positive means 1.
	Weight float64
	// Quota caps the tenant's concurrently admitted tasks (queued or
	// running); tasks over quota park at admission until a slot frees.
	// Zero or negative means unlimited.
	Quota int
}

// WorkflowResult is the per-workflow outcome a multi-tenant run hands
// back at session teardown, while the cluster keeps serving other
// sessions.
type WorkflowResult struct {
	// Tenant and Session identify the workflow instance: Tenant is the
	// index into the NewClusterSim tenant list, Session the global
	// submission index.
	Tenant  int
	Session int
	// Submitted and Finished are the workflow's arrival and completion
	// instants on the shared virtual clock; Finished − Submitted is its
	// response time.
	Submitted float64
	Finished  float64
	// Tasks is the workflow's task count.
	Tasks int
	// Collector holds the workflow's own stage records. The callback owns
	// it: the runtime drops its reference at teardown so a long arrival
	// stream does not accumulate O(total-tasks) record memory.
	Collector *metrics.Collector
}

// ClusterSim is one shared simulated cluster serving a stream of
// workflows from multiple tenants: the multi-tenant generalization of
// RunSim. Construct with NewClusterSim, register arrivals with Submit,
// then Run drives the virtual clock until every submitted workflow has
// finished.
type ClusterSim struct {
	run         *simRun
	submissions int
	ran         bool
}

// NewClusterSim builds a shared cluster for the given tenants. The
// config is resolved by the same check RunSim applies; at least one
// tenant is required.
func NewClusterSim(cfg SimConfig, tenants []TenantSpec) (*ClusterSim, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if len(tenants) == 0 {
		return nil, errors.New("runtime: NewClusterSim needs at least one tenant")
	}
	run, err := newSimRun(cfg, 0, tenants)
	if err != nil {
		return nil, err
	}
	return &ClusterSim{run: run}, nil
}

// Submit registers one workflow arrival for a tenant at virtual instant
// at (relative to the shared clock's origin), which must be finite and
// non-negative. The workflow is admitted immediately, through the same
// step as RunSim's (validation, memory preflight, lookahead tables); its
// session is created when the clock reaches the arrival instant. onDone
// (optional) fires engine-side at the workflow's completion instant —
// while other sessions keep running — and receives the per-workflow
// result. Submissions must precede Run.
func (c *ClusterSim) Submit(tenant int, wf *Workflow, at float64, onDone func(WorkflowResult)) error {
	if c.ran {
		return errors.New("runtime: Submit after Run")
	}
	r := c.run
	if tenant < 0 || tenant >= len(r.gate) {
		return fmt.Errorf("runtime: tenant %d out of range [0, %d)", tenant, len(r.gate))
	}
	if !(at >= 0) || math.IsInf(at, 1) {
		return fmt.Errorf("runtime: arrival instant %v is not a finite non-negative time", at)
	}
	// Admission runs at submission time, outside engine context: the
	// arrival event only registers the session, keeping the engine-side
	// path free of DAG walks and allocations.
	ranks, costs, err := admit(wf, &r.cfg)
	if err != nil {
		return err
	}
	c.submissions++
	r.pendingSubmits++
	r.eng.Schedule(at, func() {
		r.pendingSubmits--
		r.addSession(wf, int32(tenant), ranks, costs, func(s *session) {
			if onDone != nil {
				onDone(WorkflowResult{
					Tenant: int(s.tenant), Session: int(s.idx),
					Submitted: s.submitted, Finished: s.finished,
					Tasks: s.wf.Graph.Len(), Collector: s.collector,
				})
			}
			// Release the session's per-task state; the callback owns
			// whatever it kept. The session header (indices, instants)
			// stays for accounting.
			s.wf, s.collector, s.sink = nil, nil, nil
			s.remaining = nil
			s.ranks, s.costs = nil, nil
			s.attempts, s.doneTask, s.inFlight, s.waiters, s.counted = nil, nil, nil, nil, nil
		})
	})
	return nil
}

// Run drives the shared virtual clock until every submitted workflow has
// completed (per-workflow results stream through the Submit callbacks).
// It returns the first fatal error — a simulation failure or a task that
// exhausted its retry budget under fault injection.
func (c *ClusterSim) Run() error {
	if c.ran {
		return errors.New("runtime: ClusterSim.Run called twice")
	}
	if c.submissions == 0 {
		return errors.New("runtime: ClusterSim.Run with no submitted workflows")
	}
	c.ran = true
	r := c.run
	if err := r.eng.Run(); err != nil {
		return fmt.Errorf("runtime: simulation failed: %w", err)
	}
	if r.failErr != nil {
		return r.failErr
	}
	if r.active != 0 || r.pendingSubmits != 0 {
		return fmt.Errorf("runtime: %d workflows unfinished at engine drain",
			r.active+r.pendingSubmits)
	}
	return nil
}

// Now returns the shared virtual clock (after Run: the horizon — the
// completion instant of the last workflow).
func (c *ClusterSim) Now() float64 { return c.run.eng.Now() }

// Utilization returns the cluster's mean core and GPU busy fractions
// over the elapsed virtual time.
func (c *ClusterSim) Utilization() (core, gpu float64) { return c.run.utilization() }

// FaultStats reports failure-injection activity across every session
// (zero when injection is disabled).
func (c *ClusterSim) FaultStats() FaultStats {
	stats := c.run.stats
	if c.run.faults != nil {
		stats.Episodes = c.run.faults.Episodes()
	}
	return stats
}
