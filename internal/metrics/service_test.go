package metrics

import (
	"math"
	"testing"
)

func TestServiceStatsObserveWorkflow(t *testing.T) {
	s := NewServiceStats(2)
	c := NewCollector()
	// Three tasks: two sched records (waits 1 and 3) and noise stages the
	// walk must ignore.
	c.Add(Record{TaskID: 0, Stage: StageSched, Start: 0, End: 1})
	c.Add(Record{TaskID: 0, Stage: StageParallel, Start: 1, End: 9})
	c.Add(Record{TaskID: 1, Stage: StageSched, Start: 2, End: 5})
	c.Add(Record{TaskID: 1, Stage: StageSer, Start: 5, End: 6})

	s.ObserveWorkflow(1, 10, 2.5, c)
	s.ObserveWorkflow(1, 20, 5.0, nil) // nil collector: workflow samples only

	ten := s.Tenant(1)
	if ten.Workflows != 2 || ten.Tasks != 2 {
		t.Fatalf("workflows=%d tasks=%d, want 2 and 2", ten.Workflows, ten.Tasks)
	}
	if got := ten.QueueWaitSummary(); got.N != 2 || got.Mean != 2 || got.Min != 1 || got.Max != 3 {
		t.Errorf("queue wait summary %+v, want N=2 mean=2 min=1 max=3", got)
	}
	if got := ten.ResponseSummary(); got.Mean != 15 || got.Max != 20 {
		t.Errorf("response summary %+v, want mean=15 max=20", got)
	}
	if got := ten.SlowdownSummary(); got.P50 != 3.75 {
		// Two samples: exact small-sample median interpolates to 3.75.
		t.Errorf("slowdown p50 = %v, want 3.75", got.P50)
	}
	// The untouched tenant stays empty and reports NaN percentiles.
	if other := s.Tenant(0); other.Workflows != 0 || !math.IsNaN(other.ResponseSummary().P99) {
		t.Errorf("tenant 0 polluted: %+v", other.ResponseSummary())
	}
	if len(s.tenants) != 2 {
		t.Errorf("%d tenants, want 2", len(s.tenants))
	}
}

func TestCollectorEach(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 5; i++ {
		c.Add(Record{TaskID: i})
	}
	var ids []int
	c.Each(func(r Record) { ids = append(ids, r.TaskID) })
	if len(ids) != 5 {
		t.Fatalf("Each visited %d records, want 5", len(ids))
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("Each out of insertion order: %v", ids)
		}
	}
}
