package main

// perLayer lists the metrics a -trace 1 run reports, on every workload.
// Each layer is named after its package. A layer the workload does not
// reach reports 0. Unless a name says otherwise, a time ending in _s is
// the mean per call of the timed function, a count is per call of the
// layer's entry point, and runner and cache volumes are per operation of
// the workload.
func perLayer() []metricDef {
	defs := []metricDef{
		{"dag.build_s", "s"},
		{"dag.build_alloc_mb", "MB"},
		{"dag.build_mallocs", "count"},
		{"dag.tasks", "count"},
		{"sched.rank_s", "s"},
		{"sched.rank_us_p50", "us"},
		{"runtime.runsim_s", "s"},
		{"runtime.runsim_alloc_mb", "MB"},
		{"runtime.runsim_mallocs", "count"},
		{"runtime.tasks_per_s", "1/s"},
		{"runtime.sched_decisions", "count"},
		{"metrics.records", "count"},
		{"metrics.observe_s", "s"},
		{"metrics.query_s", "s"},
		{"runner.trials", "count"},
		{"runner.memo_hits", "count"},
		{"runner.cache_hits", "count"},
		{"runner.failed", "count"},
		{"runner.cpu_wall_s", "s"},
		{"runner.parallelism", "ratio"},
		{"runner.dedup_ratio", "ratio"},
		{"codec.encode_us_p50", "us"},
		{"codec.decode_us_p50", "us"},
		{"codec.payload_bytes", "bytes"},
		{"resultcache.keyof_us_p50", "us"},
		{"resultcache.get_us_p50", "us"},
		{"resultcache.get_us_p99", "us"},
		{"resultcache.get_s", "s"},
		{"resultcache.put_us_p50", "us"},
		{"resultcache.put_us_p99", "us"},
		{"resultcache.put_s", "s"},
		{"resultcache.open_s", "s"},
		{"resultcache.hit_ratio", "ratio"},
		{"resultcache.bytes_read", "bytes"},
		{"resultcache.bytes_written", "bytes"},
		{"resultcache.entries", "count"},
		{"server.handler_us_p50.memo", "us"},
		{"server.handler_us_p50.simulation", "us"},
		{"server.handler_us_p99.memo", "us"},
		{"server.handler_us_p99.simulation", "us"},
		{"server.transport_us_p50", "us"},
		{"server.response_bytes", "bytes"},
	}
	for _, id := range sweepIDs {
		defs = append(defs, metricDef{"experiments.run_s." + id, "s"})
	}
	return append(defs,
		metricDef{"experiments.render_s", "s"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"gen.late_ms_p50", "ms"},
		metricDef{"gen.late_ms_p99", "ms"},
		metricDef{"whatif.hot_p50_ms", "ms"},
		metricDef{"whatif.hot_p99_ms", "ms"},
		metricDef{"whatif.cold_p50_ms", "ms"},
		metricDef{"whatif.cold_p95_ms", "ms"},
		metricDef{"trace.overhead_pct", "%"},
	)
}

// layerValues derives the per-layer metrics from a traced phase's spans
// and counters. Workload-specific values (server, generator) come from
// the workload itself.
func layerValues(tr *tracer, ph phaseResult) map[string]float64 {
	ops := float64(len(ph.opsMS))
	perOp := func(ctr string) float64 { return tr.ctr(ctr) / ops }
	meanS := func(span string) float64 { return mean(tr.durs(span)) }
	us := func(span string, p float64) float64 { return percentile(tr.durs(span), p) * 1e6 }
	perCall := func(ctr, span string) float64 {
		if n := len(tr.durs(span)); n > 0 {
			return tr.ctr(ctr) / float64(n)
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v := map[string]float64{
		"dag.build_s":        meanS("dag.build"),
		"dag.build_alloc_mb": perCall("dag.build_alloc_bytes", "dag.build") / 1e6,
		"dag.build_mallocs":  perCall("dag.build_mallocs", "dag.build"),
		"dag.tasks":          perCall("dag.tasks", "dag.build"),

		"sched.rank_s":      meanS("sched.rank"),
		"sched.rank_us_p50": us("sched.rank", 50),

		"runtime.runsim_s":        meanS("runtime.runsim"),
		"runtime.runsim_alloc_mb": perCall("runtime.runsim_alloc_bytes", "runtime.runsim") / 1e6,
		"runtime.runsim_mallocs":  perCall("runtime.runsim_mallocs", "runtime.runsim"),
		"runtime.tasks_per_s":     ratio(tr.ctr("runtime.sched_decisions"), sum(tr.durs("runtime.runsim"))),
		"runtime.sched_decisions": perCall("runtime.sched_decisions", "runtime.runsim"),

		"metrics.records":   perCall("metrics.records", "runtime.runsim"),
		"metrics.observe_s": perCall("metrics.observe_s", "runtime.runsim"),
		"metrics.query_s":   meanS("metrics.query"),

		"runner.trials":      perOp("runner.trials"),
		"runner.memo_hits":   perOp("runner.memo_hits"),
		"runner.cache_hits":  perOp("runner.cache_hits"),
		"runner.failed":      perOp("runner.failed"),
		"runner.cpu_wall_s":  perOp("runner.cpu_wall_s"),
		"runner.parallelism": ratio(tr.ctr("runner.cpu_wall_s"), tr.ctr("runner.wall_s")),
		"runner.dedup_ratio": ratio(tr.ctr("runner.executed"), tr.ctr("runner.trials")),

		"codec.encode_us_p50": us("codec.encode", 50),
		"codec.decode_us_p50": us("codec.decode", 50),
		"codec.payload_bytes": perCall("codec.payload_bytes", "codec.encode"),

		"resultcache.keyof_us_p50":  us("resultcache.keyof", 50),
		"resultcache.get_us_p50":    us("resultcache.get", 50),
		"resultcache.get_us_p99":    us("resultcache.get", 99),
		"resultcache.get_s":         meanS("resultcache.get"),
		"resultcache.put_us_p50":    us("resultcache.put", 50),
		"resultcache.put_us_p99":    us("resultcache.put", 99),
		"resultcache.put_s":         meanS("resultcache.put"),
		"resultcache.open_s":        meanS("resultcache.open"),
		"resultcache.hit_ratio":     ratio(tr.ctr("resultcache.hits"), tr.ctr("resultcache.hits")+tr.ctr("resultcache.misses")),
		"resultcache.bytes_read":    perOp("resultcache.bytes_read"),
		"resultcache.bytes_written": perOp("resultcache.bytes_written"),
		"resultcache.entries":       tr.ctr("resultcache.entries"),

		"server.response_bytes": perCall("server.response_bytes", "server.handler"),

		"experiments.render_s": meanS("experiments.render"),

		"go.gc_cycles":   float64(ph.mem.gcCycles) / ops,
		"go.gc_pause_ms": float64(ph.mem.gcPauseNs) / 1e6 / ops,
	}
	for _, id := range sweepIDs {
		v["experiments.run_s."+id] = meanS("experiments.run." + id)
	}
	return v
}
