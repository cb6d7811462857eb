// Service-level metrics for multi-tenant runs: when one cluster serves a
// stream of workflows, the interesting numbers are not a single makespan
// but per-tenant distributions — how long tasks queue, how long workflows
// take end to end, and how much contention stretches them versus running
// alone (slowdown). A load sweep observes millions of tasks, so every
// distribution is held as a streaming summary (internal/stats.Stream):
// O(1) state per tenant instead of O(total-tasks) retained samples.

package metrics

import "wfsim/internal/stats"

// Summary is the reporting snapshot of one streaming distribution.
type Summary struct {
	N                             int
	Mean, Min, Max, P50, P95, P99 float64
}

func summarize(s *stats.Stream) Summary {
	return Summary{
		N: s.N(), Mean: s.Mean(), Min: s.Min(), Max: s.Max(),
		P50: s.P50(), P95: s.P95(), P99: s.P99(),
	}
}

// TenantStream accumulates one tenant's service metrics across every
// workflow it submits.
type TenantStream struct {
	// QueueWait observes one sample per task: the sched-stage duration
	// (readiness to placement, queueing plus decision time).
	QueueWait *stats.Stream
	// Response observes one sample per workflow: finish − submit.
	Response *stats.Stream
	// Slowdown observes one sample per workflow: response divided by the
	// workflow's isolated (empty-cluster) makespan. 1.0 = no contention.
	Slowdown *stats.Stream
	// Workflows and Tasks count completed workflows and their tasks.
	Workflows int
	Tasks     int
}

// QueueWaitSummary returns the tenant's queue-wait distribution snapshot.
func (t *TenantStream) QueueWaitSummary() Summary { return summarize(t.QueueWait) }

// ResponseSummary returns the tenant's response-time distribution snapshot.
func (t *TenantStream) ResponseSummary() Summary { return summarize(t.Response) }

// SlowdownSummary returns the tenant's slowdown distribution snapshot.
func (t *TenantStream) SlowdownSummary() Summary { return summarize(t.Slowdown) }

// ServiceStats aggregates streaming service metrics for n tenants. It is
// fed from completion callbacks on the engine's single thread; it is not
// safe for concurrent use.
type ServiceStats struct {
	tenants []*TenantStream
}

// NewServiceStats returns empty per-tenant streams for n tenants.
func NewServiceStats(n int) *ServiceStats {
	s := &ServiceStats{tenants: make([]*TenantStream, n)}
	for i := range s.tenants {
		s.tenants[i] = &TenantStream{
			QueueWait: stats.NewStream(),
			Response:  stats.NewStream(),
			Slowdown:  stats.NewStream(),
		}
	}
	return s
}

// Tenant returns tenant i's stream.
func (s *ServiceStats) Tenant(i int) *TenantStream { return s.tenants[i] }

// ObserveWorkflow folds one completed workflow into its tenant's streams:
// the workflow-level samples plus, via the collector walk, one queue-wait
// sample per sched-stage record. The collector is only read — the caller
// may discard it afterwards, which is the point: the streams retain O(1)
// state per tenant however many workflows flow through.
func (s *ServiceStats) ObserveWorkflow(tenant int, response, slowdown float64, c *Collector) {
	t := s.tenants[tenant]
	t.Workflows++
	t.Response.Observe(response)
	t.Slowdown.Observe(slowdown)
	if c == nil {
		return
	}
	c.Each(func(r Record) {
		if r.Stage == StageSched {
			t.Tasks++
			t.QueueWait.Observe(r.Duration())
		}
	})
}
