package runtime

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/faults"
	"wfsim/internal/metrics"
	"wfsim/internal/sched"
	"wfsim/internal/sim"
	"wfsim/internal/storage"
)

// SimConfig selects the execution environment for a simulated run: the
// factor combination of the paper's Table 1 (resources + system
// dimensions).
type SimConfig struct {
	// Cluster is the topology; defaults to Minotauro when zero.
	Cluster cluster.Spec
	// Params are the calibrated device/link rates; defaults to
	// costmodel.DefaultParams when zero.
	Params *costmodel.Params
	// Storage selects the storage architecture factor.
	Storage storage.Architecture
	// Policy selects the scheduling policy factor.
	Policy sched.Policy
	// Device selects the processor-type factor: with GPU, every task with
	// a parallel fraction is GPU-accelerated (the paper's assignment rule,
	// §3.3); serial tasks always run on CPU.
	Device costmodel.DeviceKind
	// Seed feeds the Random scheduling policy.
	Seed uint64
	// NodeSpeed optionally scales per-node compute rates (1.0 = nominal,
	// 0.5 = half-speed straggler). Length must match the cluster's node
	// count when set. Models resource heterogeneity beyond the paper's
	// uniform testbed — useful for scheduler stress studies.
	NodeSpeed []float64
	// Faults parameterizes deterministic failure injection (node
	// crashes, transient task failures, straggler episodes). The zero
	// value disables injection entirely: the run is byte-identical to
	// one built before the fault machinery existed.
	Faults faults.Config
	// Sink, when non-nil, streams every stage record into the given
	// consumer instead of retaining them in a run-private Collector:
	// metrics memory becomes O(aggregate state) instead of O(tasks), the
	// regime million-task runs need. SimResult.Collector is nil in this
	// mode (per-workflow results from ClusterSim likewise carry no
	// collector). The sink must not be shared with a concurrent run; in
	// a multi-workflow run every session feeds the same sink.
	Sink metrics.Sink
	// Arena, when non-nil, recycles substrate storage (event-node slabs,
	// queue backing, dependency counters, input slabs) across runs that
	// release into it. One run at a time per arena.
	Arena *Arena
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Cluster.Nodes == 0 {
		c.Cluster = cluster.Minotauro()
	}
	if c.Params == nil {
		p := costmodel.DefaultParams()
		c.Params = &p
	}
	return c
}

// Validate rejects structurally invalid configurations with an error
// instead of silently patching them. The zero cluster spec is legal (it
// means "use the default topology"), but a partially-filled spec with
// non-positive node or core counts is an error, as is a fault config
// that its defaults do not make valid, whether or not injection is
// enabled: a negative rate must not silently disable it. NodeSpeed
// entries must be positive; the length-vs-cluster
// check happens after defaults are applied, where the final node count
// is known.
func (c SimConfig) Validate() error {
	if c.Cluster.Nodes != 0 || c.Cluster.CoresPerNode != 0 || c.Cluster.GPUsPerNode != 0 {
		if err := c.Cluster.Validate(); err != nil {
			return fmt.Errorf("runtime: %w", err)
		}
	}
	if err := c.Faults.WithDefaults().Validate(); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	for i, s := range c.NodeSpeed {
		if s <= 0 {
			return fmt.Errorf("runtime: NodeSpeed[%d] = %v, must be positive", i, s)
		}
	}
	return nil
}

// resolve is the one configuration check RunSim and NewClusterSim share:
// Validate, then the defaults, then what only the defaulted config can
// show — NodeSpeed against the final node count and the cost-model
// parameters.
func (c SimConfig) resolve() (SimConfig, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	c = c.withDefaults()
	if c.NodeSpeed != nil && len(c.NodeSpeed) != c.Cluster.Nodes {
		return c, fmt.Errorf("runtime: NodeSpeed has %d entries for %d nodes",
			len(c.NodeSpeed), c.Cluster.Nodes)
	}
	if err := c.Params.Validate(); err != nil {
		return c, fmt.Errorf("runtime: %w", err)
	}
	return c, nil
}

// FaultStats summarizes what failure injection did to a run and what
// recovery cost. All fields are zero when injection is disabled.
type FaultStats struct {
	// Crashes is the number of node crash events.
	Crashes int
	// BlocksLost counts blocks whose only copy died with a node's local
	// disk (always 0 on shared storage).
	BlocksLost int
	// Episodes is the number of straggler slowdown episodes.
	Episodes int
	// TransientFailures counts task attempts killed by injected
	// per-attempt failures.
	TransientFailures int
	// Retries counts re-queues of transiently failed tasks (one per
	// failure that did not exhaust MaxAttempts).
	Retries int
	// CrashRequeues counts attempts re-queued because their node crashed
	// under them.
	CrashRequeues int
	// Stalls counts dispatches that found every node down and had to
	// wait for a repair.
	Stalls int
	// LineageRecomputes counts producer tasks re-executed to
	// re-materialize blocks lost with a local disk.
	LineageRecomputes int
	// InputRestages counts workflow input blocks re-fetched from the
	// durable source after their staged copy was lost.
	InputRestages int
	// WastedWork is total core time burned by aborted attempts.
	WastedWork float64
	// RecoveryWork is total core time spent re-executing
	// already-completed producer tasks for lineage recovery.
	RecoveryWork float64
}

// SimResult is the outcome of a simulated run.
type SimResult struct {
	// Collector holds every per-stage record for aggregation.
	Collector *metrics.Collector
	// Makespan is the workflow's total virtual execution time.
	Makespan float64
	// CoreUtilization and GPUUtilization are mean busy fractions.
	CoreUtilization float64
	GPUUtilization  float64
	// SchedDecisions counts scheduler dispatches (== tasks).
	SchedDecisions int
	// Faults reports failure-injection activity (zero when disabled).
	Faults FaultStats
	// Stats holds the engine's deterministic activity counters (events
	// dispatched, ring-served events, in-place waits, peak pending
	// events): the event sequence's fingerprint, for tests and profiling.
	Stats sim.Stats
}

// RunSim executes the workflow on the simulated cluster and returns the
// collected metrics. It returns costmodel.ErrGPUOOM / ErrHostOOM when any
// task's footprint exceeds device/host memory — the "GPU OOM" and "CPU GPU
// OOM" annotations in the paper's figures — without running the workflow,
// matching how an OOM aborts the paper's real executions. The run is one
// session of one default tenant on the same fair-share gate ClusterSim
// drives.
func RunSim(wf *Workflow, cfg SimConfig) (*SimResult, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	ranks, costs, err := admit(wf, &cfg)
	if err != nil {
		return nil, err
	}
	run, err := newSimRun(cfg, wf.Graph.NumData(), []TenantSpec{{}})
	if err != nil {
		return nil, err
	}
	s := run.addSession(wf, 0, ranks, costs, nil)

	if err := run.eng.Run(); err != nil {
		return nil, fmt.Errorf("runtime: simulation failed: %w", err)
	}
	if run.failErr != nil {
		return nil, run.failErr
	}
	if s.done != wf.Graph.Len() {
		return nil, fmt.Errorf("runtime: %d of %d tasks completed", s.done, wf.Graph.Len())
	}

	res := &SimResult{
		Collector:      s.collector,
		Makespan:       run.eng.Now(),
		SchedDecisions: s.done,
		Stats:          run.eng.Stats(),
	}
	if run.faults != nil {
		run.stats.Episodes = run.faults.Episodes()
		res.Faults = run.stats
	}
	res.CoreUtilization, res.GPUUtilization = run.utilization()
	if a := cfg.Arena; a != nil {
		// The engine is drained; donate its substrate storage back for
		// the caller's next trial.
		run.eng.Release(&a.nodes)
		a.keepAttempts(run.freeAttempts)
		a.inputs = run.inputs
	}
	return res, nil
}

// admit is the one admission step RunSim and ClusterSim.Submit share: it
// validates the workflow, checks every task's footprint at its assigned
// device before any simulation runs (an OOM aborts the paper's real
// executions before useful work completes), and builds the workflow's
// lookahead tables outside engine context. cfg must be resolved.
func admit(wf *Workflow, cfg *SimConfig) (ranks, costs []float64, err error) {
	if err := wf.Validate(); err != nil {
		return nil, nil, err
	}
	for id := range wf.Graph.Len() {
		spec := wf.SpecByID(id)
		dev := taskDevice(spec.Profile, cfg.Device)
		if err := cfg.Params.CheckMemory(spec.Profile, dev); err != nil {
			return nil, nil, fmt.Errorf("task %d (%s): %w", id, wf.Graph.Name(id), err)
		}
	}
	ranks, costs = rankTables(wf, cfg)
	return ranks, costs, nil
}

// taskDevice applies the paper's assignment rule: serial tasks to CPUs;
// partially or fully parallel tasks to GPUs when GPU mode is selected.
func taskDevice(prof costmodel.Profile, mode costmodel.DeviceKind) costmodel.DeviceKind {
	if mode == costmodel.GPU && prof.ParallelOps > 0 {
		return costmodel.GPU
	}
	return costmodel.CPU
}

// session is the state of one submitted workflow instance within a
// (possibly multiplexed) engine: dependency counters, its own metrics
// collector, its slice of the global datum-ID space, and the fault-path
// bookkeeping. A single-workflow run is exactly one session over the
// substrate; a multi-tenant run streams many sessions through it.
type session struct {
	// idx is the session's index in simRun.sessions; refs carry it so the
	// dispatch path finds the owning session without a map.
	idx    int32
	tenant int32
	wf     *Workflow
	// collector receives this workflow's stage records only, so teardown
	// can hand per-workflow metrics back while the cluster keeps running.
	// nil in streaming mode, where records flow to the shared sink instead.
	collector *metrics.Collector
	// sink is where stage records actually land: the session's own
	// collector normally, the run's shared SimConfig.Sink in streaming
	// mode. Never nil while the session runs.
	sink      metrics.Sink
	remaining []int32 // unmet dependency count per task
	// ranks and costs are the per-task lookahead tables the configured
	// policy consumes (HEFT upward ranks / b-levels, and estimated
	// dedicated-resource execution times), computed once per workflow
	// outside engine context (see rankTables) and stamped onto refs at
	// enqueue. nil for policies without lookahead.
	ranks, costs []float64
	// dataBase offsets this workflow's dense datum IDs into the shared
	// storage system's global ID space: workflows intern IDs from 0
	// independently, so co-resident sessions must not collide.
	dataBase  int32
	submitted float64
	finished  float64
	done      int
	ended     bool
	// onDone fires engine-side the instant the session's last task
	// completes; nil for single-workflow runs (RunSim reads the session
	// directly after the engine drains).
	onDone func(*session)

	// Fault-path state, nil when injection is disabled.
	attempts []int32   // transient failures accumulated per task
	doneTask []bool    // completed at least once (lineage may re-run it)
	inFlight []bool    // queued or executing right now
	waiters  [][]int32 // tasks parked on a producer's re-execution

	// counted marks tasks currently holding one unit of their tenant's
	// admission quota; nil when the tenant has no quota.
	counted []bool
}

// gid maps a workflow-local datum ID into the shared global ID space.
func (s *session) gid(id int32) int32 { return id + s.dataBase }

// tenantShare is one tenant's state at the fair-share gate.
type tenantShare struct {
	weight    float64
	served    float64     // grants charged (stride accounting)
	quota     int         // max concurrently admitted tasks (0 = unlimited)
	occupancy int         // admitted (queued or running) tasks, tracked under a quota
	overflow  sched.Queue // refs parked over quota, admitted FIFO on release
}

// fairShare is the dispatch gate every run goes through: weighted
// fair-share tenant selection at every grant, plus per-tenant admission
// quotas with overflow parking. RunSim's gate holds one default tenant,
// which every grant picks.
type fairShare []tenantShare

// newFairShare builds the gate for the given tenants.
func newFairShare(tenants []TenantSpec) fairShare {
	m := make(fairShare, len(tenants))
	for i, t := range tenants {
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		m[i] = tenantShare{weight: w, quota: max(t.Quota, 0)}
	}
	return m
}

// pick selects the tenant to dispatch for: the backlogged tenant with the
// lowest served/weight pass, lowest tenant ID on ties (deterministic).
func (m fairShare) pick(q *sched.Queue) int32 {
	best := int32(-1)
	var bestPass float64
	for t := range m {
		if q.TenantLen(int32(t)) == 0 {
			continue
		}
		if pass := m[t].served / m[t].weight; best < 0 || pass < bestPass {
			best, bestPass = int32(t), pass
		}
	}
	if best >= 0 {
		m[best].served++
	}
	return best
}

// simRun is the cluster substrate of a simulated execution: the engine,
// the built cluster, storage, the scheduler and the dispatch machinery,
// shared by every session it hosts. All fields are touched only from
// engine context (single-threaded), so no locking.
type simRun struct {
	cfg       SimConfig
	params    *costmodel.Params
	eng       *sim.Engine
	clu       *cluster.Cluster
	store     storage.System
	scheduler sched.Scheduler

	queue     sched.Queue
	view      sched.View // reused across every placement decision
	requestFn func()     // bound once: Master.Request
	load      []int      // outstanding tasks per node
	slots     [][]uint64 // per-node free-core bitmap (bit set = free)
	inputs    inputPool  // ready tasks' input lists

	// freeAttempts pools finished task lifecycles for the next grant; it
	// grows to the run's peak number of tasks in flight.
	freeAttempts []*attempt

	sessions       []*session
	active         int   // sessions submitted and not yet finished
	pendingSubmits int   // arrival events scheduled but not yet fired
	nextData       int32 // next free global datum ID
	gate           fairShare

	// Fault-injection state; every field below is nil/zero and untouched
	// in a fault-free run, keeping the hot path allocation-free.
	faults  *faults.Injector
	fcfg    faults.Config
	stats   FaultStats
	stalled sched.Queue // refs dispatched while every node was down
	failErr error       // fatal failure: retry budget exhausted
}

// newSimRun builds the substrate: engine, cluster, storage, scheduler,
// dispatch bindings and (when enabled) the fault injector, scheduled
// before any session's arrivals so the fault event stream matches the
// pre-refactor runtime exactly, and the fair-share gate over the given
// tenants. The caller resolves cfg first.
func newSimRun(cfg SimConfig, numDataHint int, tenants []TenantSpec) (*simRun, error) {
	var eng *sim.Engine
	if cfg.Arena != nil {
		eng = sim.NewIn(&cfg.Arena.nodes)
	} else {
		eng = sim.New()
	}
	clu, err := cluster.Build(eng, cfg.Cluster, *cfg.Params)
	if err != nil {
		return nil, err
	}
	store, err := storage.New(cfg.Storage, clu, numDataHint)
	if err != nil {
		return nil, err
	}
	scheduler, err := sched.New(cfg.Policy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	r := &simRun{
		cfg: cfg, params: cfg.Params,
		eng: eng, clu: clu, store: store, scheduler: scheduler,
		slots: make([][]uint64, cfg.Cluster.Nodes),
		gate:  newFairShare(tenants),
	}
	if a := cfg.Arena; a != nil {
		r.load = a.grabLoad(cfg.Cluster.Nodes)
		r.inputs, a.inputs = a.inputs, inputPool{}
		r.freeAttempts = a.adoptAttempts(r)
	} else {
		r.load = make([]int, cfg.Cluster.Nodes)
	}
	r.requestFn = clu.Master.Request
	// The master grant callback pops the ready queue at the exact grant
	// instant and starts the task's lifecycle once the decision's service
	// time has elapsed. Dispatch requests are plain events, so a ready task
	// holds no lifecycle state until it is actually granted.
	clu.Master.SetOnGrant(r.grantNext)
	// The scheduler view is stable for the whole run: Load and Locate are
	// live references into the run state, so one View serves every
	// placement decision. Speed and XferRate feed the lookahead policies'
	// earliest-finish-time estimates.
	r.view = sched.View{
		NumNodes: cfg.Cluster.Nodes,
		Load:     r.load,
		Locate:   store.Location,
		Speed:    cfg.NodeSpeed,
		XferRate: cfg.Params.NICBandwidth,
	}
	if b, ok := scheduler.(sched.ViewBinder); ok {
		b.BindView(&r.view)
	}
	// Core-occupancy bitmaps: bit i set = physical core i free.
	words := (cfg.Cluster.CoresPerNode + 63) / 64
	for i := range r.slots {
		r.slots[i] = make([]uint64, words)
		for c := 0; c < cfg.Cluster.CoresPerNode; c++ {
			r.slots[i][c/64] |= 1 << (c % 64)
		}
	}

	fcfg := cfg.Faults.WithDefaults()
	if fcfg.Enabled() {
		inj := faults.NewInjector(eng, fcfg, cfg.Cluster.Nodes)
		r.faults = inj
		r.fcfg = fcfg
		// The scheduler sees node up/down state live; placement never
		// targets a down node.
		r.view.Up = inj.UpNodes()
		inj.OnCrash = r.onNodeCrash
		inj.OnRepair = r.onNodeRepair
		inj.Start()
	}
	return r, nil
}

// addSession registers one workflow on the substrate at the current
// virtual instant: allocates its session state and datum-ID range,
// pre-places its input data, and enqueues its dependency-free tasks in
// generation order. Runs engine-side (or before eng.Run for the
// single-workflow case, where the instant is 0). ranks and costs are the
// workflow's precomputed lookahead tables (rankTables) — computed by the
// caller, outside engine context, so the hot path never builds them.
func (r *simRun) addSession(wf *Workflow, tenant int32, ranks, costs []float64, onDone func(*session)) *session {
	s := &session{
		idx: int32(len(r.sessions)), tenant: tenant, wf: wf,
		remaining: r.grabRemaining(wf.Graph.Len()),
		ranks:     ranks,
		costs:     costs,
		dataBase:  r.nextData,
		submitted: r.eng.Now(),
		onDone:    onDone,
	}
	if r.cfg.Sink != nil {
		// Streaming mode: records fold into the shared sink as they are
		// produced; nothing per-task is retained.
		s.sink = r.cfg.Sink
	} else {
		s.collector = metrics.NewCollector()
		s.sink = s.collector
		// Every record buffer append lands in one up-front allocation: the
		// record count is bounded by tasks × stages (faulty runs may append
		// past it; they are not on the allocation-free path anyway).
		s.collector.Grow(wf.Graph.Len() * metrics.NumStages)
	}
	r.nextData += int32(wf.Graph.NumData())
	r.sessions = append(r.sessions, s)
	r.active++
	if r.faults != nil {
		s.attempts = make([]int32, wf.Graph.Len())
		s.doneTask = make([]bool, wf.Graph.Len())
		s.inFlight = make([]bool, wf.Graph.Len())
		s.waiters = make([][]int32, wf.Graph.Len())
	}
	if r.gate[tenant].quota > 0 {
		s.counted = make([]bool, wf.Graph.Len())
	}

	// Pre-place workflow input data: shared storage registers the keys;
	// local disks receive blocks round-robin across nodes, the balanced
	// initial distribution a data-aware loader would produce. Keys are
	// placed largest-first so the dataset blocks land evenly and small
	// broadcast data (e.g. K-means centers) doesn't skew the rotation.
	inputs := wf.InputIDs()
	sort.SliceStable(inputs, func(i, j int) bool {
		return wf.SizeByID(inputs[i]) > wf.SizeByID(inputs[j])
	})
	for i, id := range inputs {
		r.store.Place(s.gid(id), i%r.cfg.Cluster.Nodes)
	}

	// Seed the ready queue with dependency-free tasks in generation order.
	g := wf.Graph
	for id := range g.Len() {
		s.remaining[id] = int32(len(g.Deps(id)))
	}
	for id := range g.Len() {
		if s.remaining[id] == 0 {
			r.enqueue(s, id)
		}
	}
	return s
}

// finishSession runs once when a session's last task completes: stamps
// the finish instant, fires the teardown callback with the session still
// intact, and stops the engine once nothing is left to run (the fault
// injector's crash and straggler cycles would otherwise keep the virtual
// clock alive forever).
func (r *simRun) finishSession(s *session) {
	if s.ended {
		return
	}
	s.ended = true
	s.finished = r.eng.Now()
	r.active--
	if s.onDone != nil {
		s.onDone(s)
	}
	if r.active == 0 && r.pendingSubmits == 0 {
		r.eng.Stop()
	}
}

// utilization returns the cluster's mean core and GPU busy fractions over
// the elapsed virtual time.
func (r *simRun) utilization() (core, gpu float64) {
	if r.eng.Now() <= 0 {
		return 0, 0
	}
	var coreBusy, gpuBusy float64
	for _, n := range r.clu.Nodes {
		coreBusy += n.Cores.BusyTime()
		gpuBusy += n.GPUs.BusyTime()
	}
	core = coreBusy / (float64(r.cfg.Cluster.TotalCores()) * r.eng.Now())
	if r.cfg.Cluster.TotalGPUs() > 0 {
		gpu = gpuBusy / (float64(r.cfg.Cluster.TotalGPUs()) * r.eng.Now())
	}
	return core, gpu
}

// attemptOutcome classifies how one placed attempt of a task ended.
type attemptOutcome int

const (
	// attemptDone: the attempt ran the full Figure 4 pipeline.
	attemptDone attemptOutcome = iota
	// attemptCrashed: the node crashed under the attempt; re-queue now.
	attemptCrashed
	// attemptFailed: injected transient failure; retry with backoff.
	attemptFailed
	// attemptLostInput: an input block is gone; the attempt registered
	// itself with the producer's waiters and lineage recovery is under
	// way.
	attemptLostInput
)

// attemptRecs buffers one attempt's stage records so an aborted attempt
// leaves a single StageRecovery span instead of a torn half-pipeline.
// Fault-free runs bypass the buffer and append records directly.
type attemptRecs struct {
	recs [metrics.NumStages]metrics.Record
	n    int
}

// acquireSlot returns the lowest free core index on a node, so repeated
// waves reuse the same physical cores — required for the paper's per-core
// (de)serialization aggregation to be meaningful. The free set is a
// bitmap, so the "lowest free" scan is a trailing-zeros instruction per
// 64 cores instead of a linear walk over booleans.
func (r *simRun) acquireSlot(node int) int {
	for w, word := range r.slots[node] {
		if word != 0 {
			bit := bits.TrailingZeros64(word)
			r.slots[node][w] = word &^ (1 << bit)
			return w*64 + bit
		}
	}
	panic(fmt.Sprintf("runtime: no free core slot on node %d despite server grant", node))
}

// releaseSlot returns a core to the node's free set.
func (r *simRun) releaseSlot(node, slot int) {
	r.slots[node][slot/64] |= 1 << (slot % 64)
}

// grabRemaining returns zeroed dependency counters for one session. The
// arena's recycled buffer serves the run's first session only: co-resident
// sessions each need their own backing, so any later session allocates.
func (r *simRun) grabRemaining(n int) []int32 {
	if a := r.cfg.Arena; a != nil && len(r.sessions) == 0 {
		return a.grabRemaining(n)
	}
	return make([]int32, n)
}

// inputPool hands out ready tasks' input lists. A list is carved from a
// slab, so it is not an individual allocation, and comes back when the
// attempt that read it finishes (attempt.finish), filed by length for the
// next task with as many reads. The pool's storage therefore tracks the
// run's peak number of live lists — ready plus in flight — rather than its
// total reads, and an arena carries the whole pool, returned lists
// included, into the next trial.
type inputPool struct {
	slab []sched.DataLoc
	free [][][]sched.DataLoc // free[n]: returned lists of capacity n
}

// borrow returns a zero-length DataLoc slice with capacity n: a returned
// list of that capacity when one is free, else the slab's next n entries,
// starting a geometrically larger slab when the current one is short.
func (p *inputPool) borrow(n int) []sched.DataLoc {
	if n < len(p.free) {
		if f := p.free[n]; len(f) > 0 {
			s := f[len(f)-1]
			p.free[n] = f[:len(f)-1]
			return s
		}
	}
	if cap(p.slab)-len(p.slab) < n {
		p.slab = make([]sched.DataLoc, 0, max(2*cap(p.slab), 1024, n))
	}
	k := len(p.slab)
	s := p.slab[k : k : k+n]
	p.slab = p.slab[:k+n]
	return s
}

// give files a borrowed list for reuse. The caller must hold no other
// reference to it.
func (p *inputPool) give(s []sched.DataLoc) {
	n := cap(s)
	if n == 0 {
		return
	}
	for len(p.free) <= n {
		// Grows only to the largest read count of any task.
		p.free = append(p.free, nil) //wfsimlint:allow hotalloc
	}
	// Grows only to the peak number of live lists of this length.
	p.free[n] = append(p.free[n], s[:0]) //wfsimlint:allow hotalloc
}

// enqueue registers a ready task and files a dispatch request with the
// master. The request is a zero-delay engine event, and no lifecycle
// state (attempt) exists until the master grants the request (grantNext).
// The enqueue instant rides with the ref so queue disciplines that reorder
// dispatch still attribute the correct wait.
//
// A tenant's admission quota is enforced here, not at the grant: a ref
// over quota parks in the tenant's overflow queue and files no request,
// preserving the one-request-per-queued-ref invariant the dispatch gate
// panics on. Re-enqueues of an admitted task (retries, crash re-queues,
// lineage waiters) bypass the quota — the task already holds its unit.
func (r *simRun) enqueue(s *session, task int) {
	if r.failErr != nil {
		return // fatal failure: the run has stopped, nothing new starts
	}
	g := s.wf.Graph
	ref := sched.TaskRef{
		ID: task, Name: g.Name(task), Enqueued: r.eng.Now(),
		Tenant: s.tenant, Session: s.idx,
	}
	// Lookahead policies read precomputed tables off the ref; stamping is
	// a slice index, so the enqueue path stays allocation-free.
	if s.ranks != nil {
		ref.Rank = s.ranks[task]
	}
	if s.costs != nil {
		ref.Cost = s.costs[task]
	}
	ids, dirs := g.Params(task)
	nReads := 0
	for _, d := range dirs {
		if d.Reads() {
			nReads++
		}
	}
	if nReads > 0 {
		ref.Inputs = r.inputs.borrow(nReads)
		for i, d := range dirs {
			if d.Reads() {
				id := ids[i]
				ref.Inputs = append(ref.Inputs,
					sched.DataLoc{ID: s.gid(id), Bytes: s.wf.SizeByID(id)})
			}
		}
	}
	if s.inFlight != nil {
		s.inFlight[task] = true
	}
	if s.counted != nil && !s.counted[task] {
		ts := &r.gate[s.tenant]
		if ts.occupancy >= ts.quota {
			ts.overflow.Push(ref)
			return
		}
		s.counted[task] = true
		ts.occupancy++
	}
	r.queue.Push(ref)
	r.eng.Schedule(0, r.requestFn)
}

// releaseQuota returns a completed task's admission unit to its tenant
// and admits parked refs while the tenant is back under quota. Keyed on
// counted, not on completion alone, so a lineage re-execution of an
// already-completed producer balances its own re-admission exactly.
func (r *simRun) releaseQuota(s *session, taskID int) {
	if s.counted == nil || !s.counted[taskID] {
		return
	}
	s.counted[taskID] = false
	ts := &r.gate[s.tenant]
	ts.occupancy--
	for ts.overflow.Len() > 0 && ts.occupancy < ts.quota {
		ref, _ := ts.overflow.PopFront()
		r.sessions[ref.Session].counted[ref.ID] = true
		ts.occupancy++
		r.queue.Push(ref)
		r.eng.Schedule(0, r.requestFn)
	}
}

// grantNext runs engine-side at the instant the master is granted to the
// oldest outstanding dispatch request: it pops the policy's pick from the
// ready queue — the task actually dispatched is whichever the policy
// selects at this exact instant — and starts the task's lifecycle once the
// policy's decision time has elapsed. The master stays held until that
// attempt places the task and calls End.
//
// The fair-share gate picks the tenant first, then the policy picks
// within that tenant's refs.
func (r *simRun) grantNext() {
	// The decision is priced at the queue depth the master actually
	// scanned: the per-rank term of the overhead model sees the ready set
	// as it was before the pick.
	qlen := r.queue.Len()
	ref, ok := r.scheduler.Next(&r.queue, r.gate.pick(&r.queue))
	if !ok {
		// Cannot happen: one request per queued ref.
		panic("runtime: ready queue empty at dispatch")
	}
	a := r.newAttempt()
	a.ref, a.state = ref, stPlace
	a.cont.Start(r.scheduler.Overhead(r.params, qlen, r.cfg.Cluster.Nodes))
}

// attemptState is a position in the task lifecycle: the point step resumes
// from when the engine calls it.
type attemptState uint8

const (
	stPlace       attemptState = iota // decision made: place, release the master, take a core
	stSlot                            // core held: bind a core slot, take the GPU
	stBody                            // resources held: the body starts
	stRead                            // locate the next input, or end the reads
	stReadLeg                         // stream the current input along its route
	stDeser                           // inputs read: decode them on the host
	stDeserDone                       // decoded: user code starts
	stCommInDone                      // GPU: host-to-device copy done
	stCPUKernel                       // CPU: run the parallel kernel
	stKernelDone                      // parallel kernel done
	stCommOutDone                     // GPU: device-to-host copy done
	stSerial                          // run the serial fraction
	stSerialDone                      // serial fraction done: encode the outputs
	stWrite                           // locate the next output, or end the writes
	stWriteLeg                        // stream the current output along its route
	stSerDone                         // outputs written: release and complete
	stFailed                          // injected failure struck mid-kernel
)

// attempt is the lifecycle of one dispatched task, from the instant its
// scheduling decision completes to its completion bookkeeping: placement
// on the master, the Figure 4 pipeline on the placed node, and — under
// fault injection — the recovery policy for the attempt's outcome. The
// engine drives it as a continuation: step advances an explicit state
// until a primitive (Cont.Wait, Server.Acquire, Link.Transfer) has to park
// it, and runs again from that state at the resume instant.
//
// Attempts are pooled on the run (simRun.freeAttempts): one exists per
// task in flight, and a finished attempt is reused by the next grant. A
// run with an Arena hands its attempts on to the next run.
type attempt struct {
	cont   sim.Cont
	stepFn func() // a.step, bound once: Bind re-uses it across runs
	r      *simRun
	state  attemptState

	ref    sched.TaskRef
	s      *session
	level  int             // the task's DAG level
	ids    []int32         // the task's parameter datum IDs (dag.Graph.Params)
	dirs   []dag.Direction // their directions
	prof   costmodel.Profile
	dev    costmodel.DeviceKind
	nodeID int
	node   *cluster.Node
	slot   int
	core   int
	speed  float64 // CPU-side compute-rate multiplier for this node

	// Fault-path state: buffered is set under injection, when records
	// collect in recs until the attempt's outcome is known.
	buffered bool
	recs     attemptRecs
	epoch    uint64
	failNow  bool
	failFrac float64

	bodyStart  float64 // resources held: start of the recovery span
	stageStart float64 // start of the stage in progress

	// Cursors: the next input (ref.Inputs) or output (ids/dirs) and the
	// leg of its route being streamed.
	in, out   int
	route     storage.Path
	leg       int
	restage   bool // the current input is re-fetched from its durable source
	readBytes float64
}

// newAttempt returns a pooled attempt, or a fresh one bound to the run's
// engine.
func (r *simRun) newAttempt() *attempt {
	if k := len(r.freeAttempts); k > 0 {
		a := r.freeAttempts[k-1]
		r.freeAttempts[k-1] = nil
		r.freeAttempts = r.freeAttempts[:k-1]
		return a
	}
	// One per peak task in flight; an Arena carries them into later runs.
	a := &attempt{r: r} //wfsimlint:allow hotalloc
	a.stepFn = a.step
	r.eng.Bind(&a.cont, a.stepFn)
	return a
}

// freeAttempt returns a finished attempt to the pool, dropping its
// references to the task it ran.
func (r *simRun) freeAttempt(a *attempt) {
	a.ref, a.s, a.node = sched.TaskRef{}, nil, nil
	a.ids, a.dirs = nil, nil
	// Grows only to the run's peak number of tasks in flight.
	r.freeAttempts = append(r.freeAttempts, a) //wfsimlint:allow hotalloc
}

// now is the current virtual time.
func (a *attempt) now() float64 { return a.r.eng.Now() }

// crashed reports whether the attempt's node restarted since placement.
// The COMPSs master notices worker loss when a dispatched task's result is
// due, not preemptively, so the lifecycle checks at stage boundaries.
func (a *attempt) crashed() bool {
	return a.r.faults != nil && a.r.faults.Epoch(a.nodeID) != a.epoch
}

// rec appends one stage record, into the attempt's buffer under fault
// injection or straight to the session's sink (fault-free hot path).
func (a *attempt) rec(core int, stage metrics.Stage, start, end float64) {
	rec := metrics.Record{
		TaskID: a.ref.ID, TaskName: a.ref.Name, Level: a.level,
		Node: a.nodeID, Core: core, Device: a.dev.String(),
		Stage: stage, Start: start, End: end,
	}
	if a.buffered {
		a.recs.recs[a.recs.n] = rec
		a.recs.n++
		return
	}
	a.s.sink.Observe(rec)
}

// step advances the lifecycle until a primitive parks it or the attempt
// ends. Every primitive is issued after the state it resumes into is set,
// so the engine's next call picks up exactly where the wait left off.
func (a *attempt) step() {
	r := a.r
	for {
		switch a.state {
		case stPlace:
			// The scheduling epilogue: the grant and decision delay already
			// happened engine-side (grantNext), so the attempt starts with
			// the master held, places the task, and releases the master.
			nodeID := r.scheduler.Place(a.ref, &r.view)
			if nodeID < 0 && r.faults != nil && !r.faults.AnyUp() {
				// Every node is down. Park the ref; the next repair re-files
				// it (onNodeRepair) with its original enqueue instant intact.
				r.stats.Stalls++
				r.stalled.Push(a.ref)
				r.clu.Master.End()
				r.freeAttempt(a)
				return
			}
			r.clu.Master.End()
			if nodeID < 0 || nodeID >= r.cfg.Cluster.Nodes {
				panic(fmt.Sprintf("runtime: scheduler placed task %d on invalid node %d", a.ref.ID, nodeID))
			}
			r.load[nodeID]++
			a.bindNode(nodeID)
			a.state = stSlot
			if !a.node.Cores.Acquire(&a.cont) {
				return
			}

		case stSlot:
			// Occupy a worker core for the whole task (COMPSs binds the task
			// to a core; GPU tasks keep their host core while the kernel
			// runs). A GPU-accelerated task additionally reserves its GPU
			// device for its entire lifetime (a COMPSs {CPU:1, GPU:1}
			// constraint: GPU worker deployments expose one executor slot
			// per device). This is why "we can execute in parallel a maximum
			// of 128 CPU-based tasks and only 32 GPU-accelerated tasks"
			// (§3.3) — the task-level-parallelism asymmetry at the heart of
			// the paper's parallel-task results.
			a.slot = r.acquireSlot(a.nodeID)
			a.core = a.nodeID*r.cfg.Cluster.CoresPerNode + a.slot
			a.state = stBody
			if a.dev == costmodel.GPU && !a.node.GPUs.Acquire(&a.cont) {
				return
			}

		case stBody:
			a.bodyStart = a.now()
			if a.crashed() {
				a.abort(attemptCrashed)
				return
			}
			// Deserialization: storage reads of every input, then CPU
			// decode.
			a.stageStart = a.now()
			a.in, a.readBytes = 0, 0
			a.state = stRead

		case stRead:
			if a.in == len(a.ref.Inputs) {
				a.state = stDeser
				continue
			}
			if !a.locateInput() {
				return
			}
			a.state = stReadLeg

		case stReadLeg:
			in := a.ref.Inputs[a.in]
			if a.leg < a.route.N {
				l := a.route.Links[a.leg]
				a.leg++
				if !l.Transfer(&a.cont, in.Bytes) {
					return
				}
				continue
			}
			if a.restage {
				r.store.Place(in.ID, a.nodeID)
				r.stats.InputRestages++
			}
			a.readBytes += in.Bytes
			a.in++
			a.state = stRead

		case stDeser:
			a.state = stDeserDone
			if a.readBytes > 0 && !a.cont.Wait(a.readBytes/r.params.DeserRate/a.speed) {
				return
			}

		case stDeserDone:
			a.rec(a.core, metrics.StageDeser, a.stageStart, a.now())
			if a.crashed() {
				a.abort(attemptCrashed)
				return
			}
			// User code. On a GPU: host-to-device transfer on the node's
			// contended PCIe bus first.
			a.stageStart = a.now()
			if a.dev == costmodel.CPU {
				a.state = stCPUKernel
				continue
			}
			a.state = stCommInDone
			if a.prof.BytesIn > 0 && !a.node.PCIe.Transfer(&a.cont, a.prof.BytesIn) {
				return
			}

		case stCommInDone:
			a.rec(a.core, metrics.StageCommIn, a.stageStart, a.now())
			a.stageStart = a.now()
			kt := r.params.ParallelTime(a.prof, costmodel.GPU)
			if a.failNow {
				// The injected failure strikes partway through the kernel.
				a.state = stFailed
				if !a.cont.Wait(kt * a.failFrac) {
					return
				}
				continue
			}
			a.state = stKernelDone
			if !a.cont.Wait(kt) {
				return
			}

		case stCPUKernel:
			var kt float64
			if a.prof.ParallelOps > 0 {
				kt = r.params.ParallelTime(a.prof, costmodel.CPU)
				// A task alone at its DAG level has no task-level
				// parallelism to protect: its vectorized kernel spreads over
				// the node's idle cores (NumPy/BLAS threading), which is why
				// the paper's parallel-task time *drops* at the maximum
				// block size (§5.3) instead of growing further.
				if a.s.wf.Graph.LevelWidth(a.level) == 1 {
					kt /= r.params.SoloThreadSpeedup
				}
				kt /= a.speed
			}
			if a.failNow {
				a.state = stFailed
				if !a.cont.Wait(kt * a.failFrac) {
					return
				}
				continue
			}
			a.state = stKernelDone
			if kt > 0 && !a.cont.Wait(kt) {
				return
			}

		case stFailed:
			a.abort(attemptFailed)
			return

		case stKernelDone:
			a.rec(a.core, metrics.StageParallel, a.stageStart, a.now())
			if a.dev == costmodel.CPU {
				a.state = stSerial
				continue
			}
			a.stageStart = a.now()
			a.state = stCommOutDone
			if a.prof.BytesOut > 0 && !a.node.PCIe.Transfer(&a.cont, a.prof.BytesOut) {
				return
			}

		case stCommOutDone:
			a.rec(a.core, metrics.StageCommOut, a.stageStart, a.now())
			a.state = stSerial

		case stSerial:
			// The serial fraction always runs on the host core (§3.3).
			a.stageStart = a.now()
			a.state = stSerialDone
			if a.prof.SerialOps > 0 && !a.cont.Wait(r.params.SerialTime(a.prof)/a.speed) {
				return
			}

		case stSerialDone:
			a.rec(a.core, metrics.StageSerial, a.stageStart, a.now())
			if a.crashed() {
				a.abort(attemptCrashed)
				return
			}
			// Serialization: CPU encode, then storage writes of every
			// output.
			a.stageStart = a.now()
			wroteBytes := a.s.wf.writtenBytes(a.ref.ID)
			a.out = 0
			a.state = stWrite
			if wroteBytes > 0 && !a.cont.Wait(wroteBytes/r.params.SerRate/a.speed) {
				return
			}

		case stWrite:
			for a.out < len(a.dirs) && !a.dirs[a.out].Writes() {
				a.out++
			}
			if a.out == len(a.dirs) {
				a.state = stSerDone
				continue
			}
			a.route, a.leg = r.store.Write(a.node), 0
			a.state = stWriteLeg

		case stWriteLeg:
			id := a.ids[a.out]
			if a.leg < a.route.N {
				l := a.route.Links[a.leg]
				a.leg++
				if !l.Transfer(&a.cont, a.s.wf.SizeByID(id)) {
					return
				}
				continue
			}
			// The last leg completed: the block now lives where it landed.
			r.store.Place(a.s.gid(id), a.nodeID)
			a.out++
			a.state = stWrite

		case stSerDone:
			a.rec(a.core, metrics.StageSer, a.stageStart, a.now())
			if a.crashed() {
				// The node died while the attempt was writing; local copies
				// of its outputs died with it (shared storage keeps them —
				// Drop is a no-op there).
				for i, d := range a.dirs {
					if d.Writes() {
						r.store.Drop(a.s.gid(a.ids[i]))
					}
				}
				a.abort(attemptCrashed)
				return
			}
			a.release()
			if a.buffered {
				for i := 0; i < a.recs.n; i++ {
					a.s.sink.Observe(a.recs.recs[i])
				}
				if a.s.doneTask[a.ref.ID] {
					// A lineage re-execution of an already-completed producer.
					r.stats.RecoveryWork += a.now() - a.bodyStart
				}
			}
			a.finish(attemptDone)
			return
		}
	}
}

// bindNode fixes the attempt on its placed node: the task's profile and
// device, the node's compute speed and, under fault injection, the node's
// restart epoch and this attempt's failure draw. It records the scheduling
// stage that just ended.
func (a *attempt) bindNode(nodeID int) {
	r := a.r
	a.s = r.sessions[a.ref.Session]
	g := a.s.wf.Graph
	a.level = g.Level(a.ref.ID)
	a.ids, a.dirs = g.Params(a.ref.ID)
	a.prof = a.s.wf.SpecByID(a.ref.ID).Profile
	a.dev = taskDevice(a.prof, r.cfg.Device)
	a.nodeID, a.node = nodeID, r.clu.Node(nodeID)
	a.speed = 1.0
	if r.cfg.NodeSpeed != nil {
		a.speed = r.cfg.NodeSpeed[nodeID]
	}
	a.buffered, a.recs.n = false, 0
	a.failNow, a.failFrac = false, 0
	if inj := r.faults; inj != nil {
		a.buffered = true
		a.epoch = inj.Epoch(nodeID)
		a.speed *= inj.Speed(nodeID)
		a.failNow, a.failFrac = inj.AttemptFails()
	}
	a.rec(-1, metrics.StageSched, a.ref.Enqueued, a.now())
}

// locateInput routes the next input: along the storage path to this node,
// or — for a block lost with a local disk — through recovery. It reports
// false when the attempt aborted to wait for lineage recovery.
func (a *attempt) locateInput() bool {
	r := a.r
	in := a.ref.Inputs[a.in]
	route, ok := r.store.Read(a.node, in.ID)
	a.restage = !ok
	if !ok {
		if r.faults == nil {
			r.panicUnknownRead(a.ref, in.ID)
		}
		if prod := r.producerOf(a.s, a.ref.ID, in.ID); prod >= 0 {
			// The block was produced by an upstream task and died with a
			// local disk: lineage recovery re-executes the producer; this
			// attempt aborts and waits for it.
			r.addWaiter(a.s, prod, a.ref.ID)
			a.abort(attemptLostInput)
			return false
		}
		// A workflow input is durable at its archival source: re-stage it
		// onto this node through the network.
		route = storage.PathOf(a.node.NIC, r.clu.Shared)
	}
	a.route, a.leg = route, 0
	return true
}

// release frees the core slot, the core, the GPU and the node load unit the
// attempt holds.
func (a *attempt) release() {
	r := a.r
	if a.dev == costmodel.GPU {
		a.node.GPUs.Release()
	}
	r.releaseSlot(a.nodeID, a.slot)
	a.node.Cores.Release()
	r.load[a.nodeID]--
}

// abort releases everything a doomed attempt holds, records its wasted
// span as a single StageRecovery record — the core time the fault burned,
// visible in traces and Gantt timelines as 'x' — and ends the attempt.
func (a *attempt) abort(out attemptOutcome) {
	r := a.r
	a.release()
	r.stats.WastedWork += a.now() - a.bodyStart
	a.s.sink.Observe(metrics.Record{
		TaskID: a.ref.ID, TaskName: a.ref.Name, Level: a.level,
		Node: a.nodeID, Core: a.core, Device: a.dev.String(),
		Stage: metrics.StageRecovery, Start: a.bodyStart, End: a.now(),
	})
	a.finish(out)
}

// finish applies the recovery policy for the attempt's outcome, then
// returns the attempt to the pool.
func (a *attempt) finish(out attemptOutcome) {
	r, s, task, name := a.r, a.s, a.ref.ID, a.ref.Name
	// The ref ends here: every outcome that runs the task again enqueues
	// it afresh, with a new input list.
	r.inputs.give(a.ref.Inputs)
	r.freeAttempt(a)
	switch out {
	case attemptDone:
		if r.faults != nil {
			// Transient-failure exhaustion counts consecutive failures: a
			// success (including lineage re-execution) proves the task can
			// make progress and resets its budget.
			s.attempts[task] = 0
		}
		r.completeTask(s, task)
	case attemptCrashed:
		r.stats.CrashRequeues++
		r.enqueue(s, task)
	case attemptFailed:
		r.stats.TransientFailures++
		s.attempts[task]++
		n := int(s.attempts[task])
		if n >= r.fcfg.MaxAttempts {
			// Terminal failure path: the run ends here.
			//wfsimlint:allow hotalloc
			r.failErr = fmt.Errorf("runtime: task %d (%s) exhausted %d attempts under transient failures",
				task, name, n)
			r.eng.Stop()
			return
		}
		r.stats.Retries++
		r.eng.Schedule(r.fcfg.Backoff(n), func() { r.enqueue(s, task) })
	case attemptLostInput:
		// The attempt registered itself as a lineage waiter; the
		// producer's (re-)completion re-enqueues it.
	}
}

// panicUnknownRead is the fault-free-path assertion for a missed block
// read: with no injection, every input must have been placed or written
// before its consumer dispatched, so a miss is a placement bug.
func (r *simRun) panicUnknownRead(ref sched.TaskRef, id int32) {
	panic(fmt.Sprintf("runtime: task %d (%s) read unknown block %d with fault injection off — block placement bug",
		ref.ID, ref.Name, id))
}

// producerOf returns the dependency of task that writes datum id (given
// as a global ID), or -1 when no dependency produces it (the datum is a
// workflow input). The scan is the lineage walk: dependencies hold every
// producer the DAG's last-writer edge inference linked to this task.
func (r *simRun) producerOf(s *session, task int, id int32) int {
	local := id - s.dataBase
	g := s.wf.Graph
	for _, dep := range g.Deps(task) {
		ids, dirs := g.Params(int(dep))
		for i, d := range dirs {
			if d.Writes() && ids[i] == local {
				return int(dep)
			}
		}
	}
	return -1
}

// addWaiter parks a task on a producer's re-execution and submits the
// producer if it is not already queued or running.
func (r *simRun) addWaiter(s *session, prod, waiter int) {
	s.waiters[prod] = append(s.waiters[prod], int32(waiter))
	if !s.inFlight[prod] {
		r.stats.LineageRecomputes++
		r.enqueue(s, prod)
	}
}

// completeTask runs the completion bookkeeping for a successful attempt:
// successor release on first completion, lineage-waiter wake-up on every
// completion, quota return and session teardown when the workflow's last
// task finishes.
func (r *simRun) completeTask(s *session, task int) {
	r.releaseQuota(s, task)
	g := s.wf.Graph
	if r.faults == nil {
		s.done++
		for _, succ := range g.Succs(task) {
			s.remaining[succ]--
			if s.remaining[succ] == 0 {
				r.enqueue(s, int(succ))
			}
		}
		if s.done == g.Len() {
			r.finishSession(s)
		}
		return
	}
	s.inFlight[task] = false
	if !s.doneTask[task] {
		s.doneTask[task] = true
		s.done++
		for _, succ := range g.Succs(task) {
			s.remaining[succ]--
			if s.remaining[succ] == 0 {
				r.enqueue(s, int(succ))
			}
		}
	}
	if ws := s.waiters[task]; len(ws) > 0 {
		s.waiters[task] = ws[:0]
		for _, w := range ws {
			r.enqueue(s, int(w))
		}
	}
	if s.done == g.Len() {
		r.finishSession(s)
	}
}

// onNodeCrash fires engine-side at a crash instant: whatever the node's
// local disk held is gone. Tasks running on the node notice at their next
// stage boundary (epoch mismatch) and re-queue themselves.
func (r *simRun) onNodeCrash(node int) {
	r.stats.Crashes++
	r.stats.BlocksLost += r.store.Invalidate(node)
}

// onNodeRepair fires engine-side when a node rejoins: refs that stalled
// with the whole cluster down re-enter the ready queue.
func (r *simRun) onNodeRepair(int) {
	for r.stalled.Len() > 0 {
		ref, _ := r.stalled.PopFront()
		r.queue.Push(ref)
		r.eng.Schedule(0, r.requestFn)
	}
}

// ErrOOM reports whether err is a memory-capacity error (either kind).
func ErrOOM(err error) bool {
	return errors.Is(err, costmodel.ErrGPUOOM) || errors.Is(err, costmodel.ErrHostOOM)
}
