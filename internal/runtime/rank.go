package runtime

import (
	"wfsim/internal/costmodel"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
)

// rankTables precomputes the per-task lookahead tables the configured
// policy consumes, once per workflow:
//
//   - costs[t]: the task's estimated dedicated-resource execution time on
//     a nominal-speed node (deserialize + user code + serialize), the
//     quantity min-min orders by and earliest-finish-time placement
//     scales per candidate node.
//   - ranks[t]: the task's dispatch priority — HEFT upward rank (mean
//     execution cost across the heterogeneous cluster plus an estimated
//     producer-to-consumer transfer cost per edge) or plain b-level
//     (nominal execution cost, zero transfer) — so the critical path
//     drains first.
//
// Policies without lookahead get nil tables and pay nothing. Callers run
// this outside engine context (RunSim setup, ClusterSim.Submit), keeping
// the per-workflow allocations and DAG walks off the dispatch hot path —
// the simulated master pays for its lookahead through the calibrated
// overhead model instead.
func rankTables(wf *Workflow, cfg *SimConfig) (ranks, costs []float64) {
	switch cfg.Policy {
	case sched.HEFT, sched.BLevel, sched.MinMin:
	default:
		return nil, nil
	}
	p := cfg.Params
	g := wf.Graph
	costs = make([]float64, g.Len())
	for id := range costs {
		costs[id] = taskEstimate(wf, id, p, cfg.Device)
	}
	if cfg.Policy == sched.MinMin {
		return nil, costs
	}

	if cfg.Policy == sched.BLevel {
		return sched.Ranks(g, func(id int) float64 { return costs[id] }, nil), costs
	}

	// HEFT weights tasks by their mean execution cost across the cluster:
	// the mean inverse node speed scales every nominal cost identically
	// (per-task device heterogeneity is already inside costs), preserving
	// HEFT's convention without changing the rank order.
	meanInvSpeed := 1.0
	if cfg.NodeSpeed != nil {
		var sum float64
		for _, sp := range cfg.NodeSpeed {
			sum += 1 / sp
		}
		meanInvSpeed = sum / float64(len(cfg.NodeSpeed))
	}
	heftWeight := func(id int) float64 { return costs[id] * meanInvSpeed }

	// Edge transfer estimate: the producer's written bytes crossing the
	// network at NIC rate. Only local-disk storage ever moves blocks
	// between nodes; shared storage reaches every node identically, so
	// transfer does not differentiate paths and contributes zero rank.
	var comm func(from, to int) float64
	if cfg.Storage == storage.Local && p.NICBandwidth > 0 {
		frac := 0.0
		if n := cfg.Cluster.Nodes; n > 1 {
			// A consumer lands on the producer's node 1/n of the time
			// under uniform placement; the rest of the time the bytes
			// cross the wire.
			frac = float64(n-1) / float64(n)
		}
		comm = func(from, _ int) float64 {
			return wf.writtenBytes(from) / p.NICBandwidth * frac
		}
	}
	return sched.Ranks(g, heftWeight, comm), costs
}

// taskEstimate is the per-task dedicated-resource execution time estimate
// the lookahead tables are built from: CPU decode + user code + CPU
// encode under the paper's device-assignment rule, contention excluded
// (the scheduler estimates, the simulation decides).
func taskEstimate(wf *Workflow, id int, p *costmodel.Params, mode costmodel.DeviceKind) float64 {
	prof := wf.SpecByID(id).Profile
	dev := taskDevice(prof, mode)
	return p.DeserTime(prof) + p.UserCodeTimeUncontended(prof, dev) + p.SerTime(prof)
}
