package main

// A benchmark reads the host clock by design.
//
//wfsimlint:wallclock

import (
	"fmt"
	"time"

	"wfsim/internal/apps/kmeans"
	"wfsim/internal/costmodel"
	"wfsim/internal/dataset"
	"wfsim/internal/metrics"
	"wfsim/internal/runtime"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
)

// huge is the million-task run: K-means with 4096 blocks and 250
// iterations (1,024,250 tasks) on GPUs, local disks and the locality
// policy, streaming into one Aggregates and reusing one Arena. Its
// operation is one pass: DAG build plus simulation. No runner, cache,
// server or rank table is involved.
type huge struct {
	cfg      config
	kc       kmeans.Config
	tasks    int
	arena    *runtime.Arena
	agg      *metrics.Aggregates
	makespan float64 // of the first pass; every pass must match it
}

func newHuge(cfg config) *huge {
	kc := kmeans.Config{Dataset: dataset.KMeansSmall, Grid: 4096, Clusters: 10, Iterations: 250}
	if cfg.smoke {
		kc.Grid, kc.Iterations = 64, 5
	}
	return &huge{cfg: cfg, kc: kc, tasks: int(kc.Grid)*kc.Iterations + kc.Iterations}
}

func (h *huge) setup() error { return h.probe("") }

func (h *huge) probe(string) error {
	h.arena, h.agg = new(runtime.Arena), metrics.NewAggregates()
	return nil
}

func (h *huge) probeDir() string { return "" }

func (h *huge) close() {}

func (h *huge) run(seconds float64, tr *tracer, chk *checks) (phaseResult, error) {
	ph := phaseResult{tailPct: 100}
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	for i := 0; ; i++ {
		settle()
		m := memNow()
		wall, err := h.pass(tr, int64(i), chk)
		if err != nil {
			return phaseResult{}, err
		}
		d := memSince(m)
		ph.mem.add(d)
		ph.allocOps = append(ph.allocOps, float64(d.alloc))
		ph.opsMS = append(ph.opsMS, float64(wall)/1e6)
		// Start another pass only if it should end within the budget.
		if h.cfg.smoke || time.Since(start)+wall > budget {
			break
		}
	}
	return ph, nil
}

func (h *huge) pass(tr *tracer, req int64, chk *checks) (time.Duration, error) {
	start := time.Now()
	passSpan := tr.begin("huge.pass", -1, req)
	var m0 memDelta
	if tr != nil {
		m0 = memNow()
	}
	id := tr.begin("dag.build", passSpan, req)
	wf, err := kmeans.Build(h.kc)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		d := memSince(m0)
		tr.add("dag.build_alloc_bytes", float64(d.alloc))
		tr.add("dag.build_mallocs", float64(d.mallocs))
		tr.add("dag.tasks", float64(wf.Graph.Len()))
		m0 = memNow()
	}
	h.agg.Reset()
	var sink metrics.Sink = h.agg
	ts := &timedSink{agg: h.agg}
	if tr != nil {
		sink = ts
	}
	id = tr.begin("runtime.runsim", passSpan, req)
	res, err := runtime.RunSim(wf, runtime.SimConfig{
		Device:  costmodel.GPU,
		Storage: storage.Local,
		Policy:  sched.Locality,
		Seed:    h.cfg.seed,
		Sink:    sink,
		Arena:   h.arena,
	})
	tr.end(id)
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		d := memSince(m0)
		tr.add("runtime.runsim_alloc_bytes", float64(d.alloc))
		tr.add("runtime.runsim_mallocs", float64(d.mallocs))
		tr.add("runtime.sched_decisions", float64(res.SchedDecisions))
		tr.add("metrics.records", float64(ts.n))
		tr.add("metrics.observe_s", ts.d.Seconds())
		id = tr.begin("metrics.query", passSpan, req)
		queryAggregates(h.agg, "partial_sum")
		tr.end(id)
	}
	tr.end(passSpan)

	var failure error
	switch {
	case res.SchedDecisions != h.tasks:
		failure = fmt.Errorf("huge: %d scheduling decisions, want %d", res.SchedDecisions, h.tasks)
	case res.Collector != nil:
		failure = fmt.Errorf("huge: streaming run retained a collector")
	case h.makespan != 0 && res.Makespan != h.makespan:
		failure = fmt.Errorf("huge: makespan %v, first pass %v", res.Makespan, h.makespan)
	}
	if h.makespan == 0 {
		h.makespan = res.Makespan
	}
	chk.op(failure)
	return wall, nil
}

// queryAggregates issues the aggregate queries a cell's metrics are built
// from (experiments.RunCell).
func queryAggregates(a *metrics.Aggregates, head string) {
	a.MeanStage(head, metrics.StageParallel)
	a.MeanStage(head, metrics.StageSerial)
	a.MeanStage(head, metrics.StageCommIn)
	a.MeanStage(head, metrics.StageCommOut)
	a.MovementPerCore(metrics.StageDeser)
	a.MovementPerCore(metrics.StageSer)
	a.MeanLevelSpan()
}
