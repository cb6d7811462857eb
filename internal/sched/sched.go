// Package sched implements the runtime's pluggable task scheduling
// policies (§3.2). The paper evaluates two COMPSs policies — task
// generation order (FIFO) and data locality — plus LIFO and a seeded
// random policy as ablation baselines. On top of those, the zoo adds the
// lookahead and dynamic schedulers of Beránek et al.'s simulator study:
// HEFT (upward-rank priority, earliest-finish-time placement), b-level
// (bottom-level priority, least-loaded placement), min-min (shortest
// estimated task first, earliest-finish-time placement) and work stealing
// (per-node deques with steal-on-idle).
//
// A policy makes two choices: which ready task to dispatch next (queue
// discipline) and which node to place it on. Each decision costs a
// per-decision service time on the capacity-1 master server — base cost
// plus, for the lookahead policies, a per-ready-task priority-scan term
// and a per-candidate-node placement-scan term (see Scheduler.Overhead
// and costmodel's Sched* constants) — so scheduling overhead scales with
// the number of tasks, queue depth and cluster size. That is the
// mechanism behind the paper's observation that fine-grained workloads
// suffer scheduling bottlenecks, and behind the ext6 ranking flip:
// lookahead wins while decisions are free and loses once they are not.
//
// Data is identified by interned datum IDs (see dag.Interner): locality
// decisions index flat per-node scratch instead of hashing strings, so a
// placement decision allocates nothing in steady state.
package sched

import (
	"fmt"
	"math"
	"math/rand/v2"

	"wfsim/internal/costmodel"
)

// DataLoc describes one input datum of a task for locality decisions.
type DataLoc struct {
	// ID is the datum's interned ID (dag.Interner).
	ID    int32
	Bytes float64
}

// TaskRef is the scheduler-visible view of a ready task.
type TaskRef struct {
	ID     int
	Name   string
	Inputs []DataLoc
	// Enqueued is the virtual instant the task entered the ready queue.
	// It rides with the ref so queue disciplines that reorder dispatch
	// (LIFO) still attribute the correct wait to each task.
	Enqueued float64
	// Tenant tags the workload stream the task belongs to; the queue
	// keeps per-tenant length accounting so a fair-share dispatch gate
	// can pick a tenant without popping. Single-workflow runs leave it 0.
	Tenant int32
	// Session identifies the submitted workflow instance within the
	// runtime's multiplexed engine (one tenant may stream many
	// workflows). Opaque to the scheduler; 0 in single-workflow runs.
	Session int32
	// Rank is the task's precomputed lookahead priority (HEFT upward rank
	// or b-level), stamped from the session's per-workflow rank table at
	// enqueue. Higher dispatches first. Zero for policies without
	// lookahead.
	Rank float64
	// Cost is the task's estimated dedicated-resource execution time
	// (deserialize + user code + serialize on a nominal-speed node),
	// stamped alongside Rank. min-min dispatches the smallest Cost first;
	// earliest-finish-time placement scales it by candidate node speed.
	Cost float64
}

// View is the scheduler-visible cluster state.
type View struct {
	// NumNodes is the cluster node count.
	NumNodes int
	// Load is the number of dispatched-but-unfinished tasks per node.
	Load []int
	// Locate resolves a datum ID to its holding node (local-disk
	// storage); shared storage always reports no affinity.
	Locate func(id int32) (int, bool)
	// Up marks nodes accepting work; nil means every node is up (the
	// fault-free case). Placement never targets a down node; Place
	// returns -1 when no node is up.
	Up []bool
	// Speed is the per-node compute-rate multiplier (SimConfig.NodeSpeed);
	// nil means a homogeneous cluster. Earliest-finish-time placement
	// scales task cost estimates by it.
	Speed []float64
	// XferRate is the estimated node-to-node transfer bandwidth (bytes/s)
	// used to price pulling non-resident input bytes in placement
	// estimates; 0 disables the transfer term.
	XferRate float64
}

// upNode reports whether node n accepts work.
func (v *View) upNode(n int) bool { return v.Up == nil || v.Up[n] }

// speed returns node n's compute-rate multiplier (1 when homogeneous).
func (v *View) speed(n int) float64 {
	if v.Speed == nil {
		return 1
	}
	return v.Speed[n]
}

// leastLoaded returns the up node with the fewest outstanding tasks,
// lowest ID winning ties (deterministic), or -1 when every node is down.
func (v *View) leastLoaded() int {
	best, bestLoad := -1, int(^uint(0)>>1)
	for n := 0; n < v.NumNodes; n++ {
		if v.upNode(n) && v.Load[n] < bestLoad {
			best, bestLoad = n, v.Load[n]
		}
	}
	return best
}

// Queue is the ready-task queue, ordered by task generation order. It is
// a ring buffer: PopFront recycles its slot instead of shrinking the
// slice from the front, so the backing array stays bounded by the peak
// queue depth instead of growing for the whole run.
type Queue struct {
	items []TaskRef
	head  int
	count int
	// perTenant[t] counts queued refs tagged with tenant t, so a
	// fair-share gate can inspect tenant backlogs without popping. The
	// slice grows to cover the highest tenant tag ever pushed.
	perTenant []int
}

// Push appends a newly ready task. Tasks become ready in generation order
// among tasks freed at the same instant, so Push order is the paper's
// "task generation order".
func (q *Queue) Push(t TaskRef) {
	if q.count == len(q.items) {
		grown := make([]TaskRef, 2*len(q.items)+4)
		for i := 0; i < q.count; i++ {
			grown[i] = q.items[(q.head+i)%len(q.items)]
		}
		q.items, q.head = grown, 0
	}
	q.items[(q.head+q.count)%len(q.items)] = t
	q.count++
	for int(t.Tenant) >= len(q.perTenant) {
		q.perTenant = append(q.perTenant, 0)
	}
	q.perTenant[t.Tenant]++
}

// Len returns the number of queued tasks.
func (q *Queue) Len() int { return q.count }

// TenantLen returns the number of queued tasks tagged with tenant t.
func (q *Queue) TenantLen(t int32) int {
	if int(t) >= len(q.perTenant) {
		return 0
	}
	return q.perTenant[t]
}

// Peek returns the oldest ready task without removing it.
func (q *Queue) Peek() (TaskRef, bool) {
	if q.count == 0 {
		return TaskRef{}, false
	}
	return q.items[q.head], true
}

// PopFront removes and returns the oldest ready task.
func (q *Queue) PopFront() (TaskRef, bool) {
	if q.count == 0 {
		return TaskRef{}, false
	}
	t := q.items[q.head]
	q.items[q.head] = TaskRef{} // release the Inputs backing for reuse
	q.head = (q.head + 1) % len(q.items)
	q.count--
	q.perTenant[t.Tenant]--
	return t, true
}

// at returns the physical index of the i-th queued ref (0 = oldest).
func (q *Queue) at(i int) int { return (q.head + i) % len(q.items) }

// removeAt deletes the i-th queued ref (0 = oldest), preserving the
// relative order of every other ref by shifting the shorter side of the
// ring toward the gap. No allocation.
func (q *Queue) removeAt(i int) TaskRef {
	t := q.items[q.at(i)]
	if i < q.count-i-1 {
		// Shift the front segment back by one.
		for j := i; j > 0; j-- {
			q.items[q.at(j)] = q.items[q.at(j-1)]
		}
		q.items[q.head] = TaskRef{}
		q.head = (q.head + 1) % len(q.items)
	} else {
		// Shift the tail segment forward by one.
		for j := i; j < q.count-1; j++ {
			q.items[q.at(j)] = q.items[q.at(j+1)]
		}
		q.items[q.at(q.count-1)] = TaskRef{}
	}
	q.count--
	q.perTenant[t.Tenant]--
	return t
}

// PopFrontTenant removes and returns the oldest ready task tagged with
// tenant t. The scan from the head is linear in queue depth; the
// fair-share gate calls it once per dispatch.
func (q *Queue) PopFrontTenant(t int32) (TaskRef, bool) {
	if q.TenantLen(t) == 0 {
		return TaskRef{}, false
	}
	for i := 0; i < q.count; i++ {
		if q.items[q.at(i)].Tenant == t {
			return q.removeAt(i), true
		}
	}
	return TaskRef{}, false
}

// PopBackTenant removes and returns the newest ready task tagged with
// tenant t.
func (q *Queue) PopBackTenant(t int32) (TaskRef, bool) {
	if q.TenantLen(t) == 0 {
		return TaskRef{}, false
	}
	for i := q.count - 1; i >= 0; i-- {
		if q.items[q.at(i)].Tenant == t {
			return q.removeAt(i), true
		}
	}
	return TaskRef{}, false
}

// rankGreater and costLess are the lookahead queue disciplines: highest
// precomputed priority first (HEFT, b-level) and smallest estimated
// execution time first (min-min). Named functions, not closures, so the
// dispatch path carries no per-call allocations.
func rankGreater(a, b TaskRef) bool { return a.Rank > b.Rank }
func costLess(a, b TaskRef) bool    { return a.Cost < b.Cost }

// popBest removes and returns the tenant's queued ref preferred by
// better(cand, incumbent), scanning front to back; with a strict
// comparison the oldest ref wins ties, so equal-priority work keeps
// generation order. Only refs tagged with the given tenant compete — the
// fair-share gate picks the tenant, the discipline picks within it.
func (q *Queue) popBest(tenant int32, better func(cand, best TaskRef) bool) (TaskRef, bool) {
	if q.TenantLen(tenant) == 0 {
		return TaskRef{}, false
	}
	bestIdx := -1
	var best TaskRef
	for i := 0; i < q.count; i++ {
		ref := q.items[q.at(i)]
		if ref.Tenant != tenant {
			continue
		}
		if bestIdx < 0 || better(ref, best) {
			bestIdx, best = i, ref
		}
	}
	if bestIdx < 0 {
		return TaskRef{}, false
	}
	return q.removeAt(bestIdx), true
}

// Policy identifies a scheduling policy.
type Policy int

const (
	// FIFO is COMPSs' task-generation-order policy: cheap decisions,
	// placement on the least-loaded node.
	FIFO Policy = iota
	// Locality is COMPSs' data-locality policy: pricier decisions,
	// placement on the node holding the most input bytes.
	Locality
	// LIFO dispatches the most recently generated ready task first
	// (ablation).
	LIFO
	// Random places tasks uniformly at random (seeded; ablation
	// baseline).
	Random
	// HEFT dispatches by precomputed upward rank (critical-path-aware
	// lookahead) and places on the node with the earliest estimated
	// finish time, accounting for node speed and input residency.
	HEFT
	// BLevel dispatches by precomputed bottom level — the weight of the
	// heaviest path from the task to a sink — with the cheap least-loaded
	// placement: priority lookahead without the per-node placement scan.
	BLevel
	// MinMin dispatches the ready task with the smallest estimated
	// execution time first and places it at its earliest estimated
	// finish time.
	MinMin
	// WorkSteal models per-node deques with steal-on-idle: the idle
	// (least-loaded) node pops the newest task homed on it, or steals the
	// oldest ready task when its own deque is empty.
	WorkSteal
)

// String returns the policy's stable lowercase token. These tokens are
// the policy's durable external names — CLI flags, HTTP what-if requests
// and report documentation all use them, and they are append-only (see
// ParsePolicy). Result-cache keys encode the Policy enum value itself,
// so tokens and keys are stable independently. Paper-phrase display
// names live in Describe.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case Locality:
		return "locality"
	case LIFO:
		return "lifo"
	case Random:
		return "random"
	case HEFT:
		return "heft"
	case BLevel:
		return "blevel"
	case MinMin:
		return "minmin"
	case WorkSteal:
		return "worksteal"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Describe returns the policy's report display name: the paper's
// phrasing for the two COMPSs policies, conventional names for the rest.
// Report renderers use Describe; machine-facing surfaces use String.
func (p Policy) Describe() string {
	switch p {
	case FIFO:
		return "task generation order"
	case Locality:
		return "data locality"
	case HEFT:
		return "heft"
	case BLevel:
		return "b-level"
	case MinMin:
		return "min-min"
	case WorkSteal:
		return "work stealing"
	default:
		return p.String()
	}
}

// Policies returns every implemented policy in enum order.
func Policies() []Policy {
	return []Policy{FIFO, Locality, LIFO, Random, HEFT, BLevel, MinMin, WorkSteal}
}

// ParsePolicy resolves a stable policy token (Policy.String) back to its
// Policy. Tokens are part of the external interface (CLI, HTTP) and are
// never renamed, only added.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown policy %q", s)
}

// Scheduler selects and places ready tasks.
type Scheduler interface {
	// Policy identifies the implementation.
	Policy() Policy
	// Overhead is the master-side service time of one scheduling
	// decision made with queueLen ready tasks on a numNodes cluster:
	// SchedOverheadScale × (per-policy base + priority-scan and
	// placement-scan terms for the lookahead policies). The runtime
	// charges it on the master's service line at every grant.
	Overhead(p *costmodel.Params, queueLen, numNodes int) float64
	// Next removes and returns the next task to dispatch among the refs
	// tagged with the given tenant, applying the policy's queue discipline
	// to that tenant's refs only. The runtime's fair-share dispatch gate
	// picks the tenant; the policy picks the task.
	Next(q *Queue, tenant int32) (TaskRef, bool)
	// Place picks the target node for the task.
	Place(t TaskRef, v *View) int
}

// ViewBinder is implemented by schedulers whose queue discipline needs
// cluster state (work stealing picks the idle node before it picks the
// task). The runtime binds its live View once at construction; Next may
// then consult it.
type ViewBinder interface {
	BindView(v *View)
}

// New constructs the scheduler for a policy. Seed is used only by Random.
func New(p Policy, seed uint64) (Scheduler, error) {
	switch p {
	case FIFO:
		return fifoSched{}, nil
	case Locality:
		return &localitySched{}, nil
	case LIFO:
		return lifoSched{}, nil
	case Random:
		return &randomSched{rng: rand.New(rand.NewPCG(seed, 0x5eed))}, nil
	case HEFT:
		return &heftSched{}, nil
	case BLevel:
		return &blevelSched{}, nil
	case MinMin:
		return &minminSched{}, nil
	case WorkSteal:
		return &workStealSched{}, nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %d", p)
	}
}

type fifoSched struct{}

func (fifoSched) Policy() Policy { return FIFO }
func (fifoSched) Overhead(p *costmodel.Params, _, _ int) float64 {
	return p.SchedOverheadScale * p.SchedFIFO
}
func (fifoSched) Next(q *Queue, t int32) (TaskRef, bool) { return q.PopFrontTenant(t) }
func (fifoSched) Place(t TaskRef, v *View) int           { return v.leastLoaded() }

type lifoSched struct{}

func (lifoSched) Policy() Policy { return LIFO }
func (lifoSched) Overhead(p *costmodel.Params, _, _ int) float64 {
	return p.SchedOverheadScale * p.SchedLIFO
}
func (lifoSched) Next(q *Queue, t int32) (TaskRef, bool) { return q.PopBackTenant(t) }
func (lifoSched) Place(t TaskRef, v *View) int           { return v.leastLoaded() }

// residency is the reusable per-node scratch behind every data-aware
// placement decision: byNode tallies resident input bytes per node, seen
// tracks membership, and touched remembers which entries to reset
// afterwards, so a decision performs zero steady-state allocations.
type residency struct {
	byNode  []float64
	seen    []bool
	touched []int
}

// size adapts the scratch to the view's node count. Growth past capacity
// reallocates; any other change (a cluster resized mid-session, or a
// scheduler reused across differently-sized views) re-slices in place —
// the stale-capacity path that used to silently keep oversized
// assumptions. Entries beyond the previous length are zero: reset zeroes
// every touched entry after each decision.
func (r *residency) size(n int) {
	if cap(r.byNode) < n {
		// Runs on the first decision and when the cluster grows past every
		// previous size — a reconfiguration event, not steady state.
		r.byNode = make([]float64, n) //wfsimlint:allow hotalloc
		r.seen = make([]bool, n)      //wfsimlint:allow hotalloc
	} else if len(r.byNode) != n {
		r.byNode = r.byNode[:n]
		r.seen = r.seen[:n]
	}
}

// tally accumulates the resident bytes of t's inputs per up node. The
// n < NumNodes guard drops stale locations recorded under a larger
// cluster: affinity to a node that no longer exists is no affinity.
func (r *residency) tally(t TaskRef, v *View) {
	r.size(v.NumNodes)
	for _, in := range t.Inputs {
		// Membership is tracked explicitly (seen), not via byNode[n] == 0:
		// zero-byte inputs are legal, and keying on the tally would append
		// the same node to touched once per such input.
		if n, ok := v.Locate(in.ID); ok && n >= 0 && n < v.NumNodes && v.upNode(n) {
			if !r.seen[n] {
				r.seen[n] = true
				// Capacity is retained across decisions and bounded by the
				// node count, so steady state never grows it.
				r.touched = append(r.touched, n) //wfsimlint:allow hotalloc
			}
			r.byNode[n] += in.Bytes
		}
	}
}

// reset zeroes the touched entries, leaving the scratch clean for the
// next decision.
func (r *residency) reset() {
	for _, n := range r.touched {
		r.byNode[n] = 0
		r.seen[n] = false
	}
	r.touched = r.touched[:0]
}

// localitySched places on the node holding the most input bytes, using
// the shared residency scratch.
type localitySched struct {
	res residency
}

func (*localitySched) Policy() Policy { return Locality }
func (*localitySched) Overhead(p *costmodel.Params, _, _ int) float64 {
	return p.SchedOverheadScale * p.SchedLocality
}
func (*localitySched) Next(q *Queue, t int32) (TaskRef, bool) { return q.PopFrontTenant(t) }

// Place tallies input bytes per holding node and chooses the node with the
// best locality score; without any located input (e.g. shared storage,
// where blocks have no node affinity) it falls back to least-loaded. The
// score discounts resident bytes by the node's outstanding load — COMPSs'
// locality scheduler likewise prefers local data only among free
// resources, so a data hotspot does not serialize the whole level.
//
// When every resident input is zero-byte the affinity is still real
// (node-resident metadata, empty partitions): the task goes to the least
// loaded of the touched nodes instead of forgetting them — the
// zero-score fall-through to the global least-loaded scan was a bug that
// discarded known placement signal.
func (l *localitySched) Place(t TaskRef, v *View) int {
	l.res.tally(t, v)
	best, bestScore := -1, 0.0
	for _, n := range l.res.touched {
		// Strictly-greater keeps the lowest node ID on ties for
		// determinism — touched holds distinct nodes in first-tally
		// order, so compare against the lowest-ID candidate explicitly.
		if score := l.res.byNode[n] / float64(1+v.Load[n]); score > bestScore ||
			(score == bestScore && best >= 0 && n < best) {
			best, bestScore = n, score
		}
	}
	if best < 0 {
		for _, n := range l.res.touched {
			if best < 0 || v.Load[n] < v.Load[best] ||
				(v.Load[n] == v.Load[best] && n < best) {
				best = n
			}
		}
	}
	l.res.reset()
	if best < 0 {
		return v.leastLoaded()
	}
	return best
}

type randomSched struct {
	rng *rand.Rand
}

func (*randomSched) Policy() Policy { return Random }
func (*randomSched) Overhead(p *costmodel.Params, _, _ int) float64 {
	return p.SchedOverheadScale * p.SchedRandom
}
func (*randomSched) Next(q *Queue, t int32) (TaskRef, bool) { return q.PopFrontTenant(t) }

// Place draws a uniform node; with down nodes it keeps the single draw
// (so the fault-free stream is untouched) and scans forward to the next
// up node, returning -1 when the whole cluster is down.
func (r *randomSched) Place(t TaskRef, v *View) int {
	n := r.rng.IntN(v.NumNodes)
	for k := 0; k < v.NumNodes; k++ {
		if c := (n + k) % v.NumNodes; v.upNode(c) {
			return c
		}
	}
	return -1
}

// eftNode returns the up node with the earliest estimated finish time for
// t: the work queued ahead of it (plus itself) scaled by the node's
// speed, plus the estimated transfer time for input bytes not resident on
// the candidate. res must already hold t's residency tally. Lowest node
// ID wins ties (strictly-less comparison); -1 when every node is down.
// Refs without a cost estimate degrade to a speed-blind least-loaded
// choice, so the placement stays sane outside the runtime's stamping.
func eftNode(t TaskRef, v *View, res *residency) int {
	var total float64
	for _, in := range t.Inputs {
		total += in.Bytes
	}
	best, bestEFT := -1, math.Inf(1)
	for n := 0; n < v.NumNodes; n++ {
		if !v.upNode(n) {
			continue
		}
		eft := float64(v.Load[n] + 1)
		if t.Cost > 0 {
			eft *= t.Cost / v.speed(n)
		}
		if v.XferRate > 0 {
			eft += (total - res.byNode[n]) / v.XferRate
		}
		if eft < bestEFT {
			best, bestEFT = n, eft
		}
	}
	return best
}

// heftSched dispatches by precomputed upward rank and places at the
// earliest estimated finish time: the full HEFT discipline, priced by the
// overhead model as a rank scan over the ready queue plus an EFT
// evaluation per candidate node.
type heftSched struct {
	res residency
}

func (*heftSched) Policy() Policy { return HEFT }
func (*heftSched) Overhead(p *costmodel.Params, queueLen, numNodes int) float64 {
	return p.SchedOverheadScale *
		(p.SchedHEFT + p.SchedPerRank*float64(queueLen) + p.SchedPerNode*float64(numNodes))
}
func (*heftSched) Next(q *Queue, t int32) (TaskRef, bool) { return q.popBest(t, rankGreater) }
func (h *heftSched) Place(t TaskRef, v *View) int {
	h.res.tally(t, v)
	n := eftNode(t, v, &h.res)
	h.res.reset()
	return n
}

// blevelSched dispatches by precomputed bottom level with the cheap
// least-loaded placement: priority lookahead without HEFT's per-node
// placement scan, and priced accordingly (no SchedPerNode term).
type blevelSched struct{}

func (blevelSched) Policy() Policy { return BLevel }
func (blevelSched) Overhead(p *costmodel.Params, queueLen, _ int) float64 {
	return p.SchedOverheadScale * (p.SchedBLevel + p.SchedPerRank*float64(queueLen))
}
func (blevelSched) Next(q *Queue, t int32) (TaskRef, bool) { return q.popBest(t, rankGreater) }
func (blevelSched) Place(t TaskRef, v *View) int           { return v.leastLoaded() }

// minminSched dispatches the ready task with the smallest estimated
// execution time and places it at its earliest estimated finish time —
// min-min's greedy completion-time heuristic over the ready set.
type minminSched struct {
	res residency
}

func (*minminSched) Policy() Policy { return MinMin }
func (*minminSched) Overhead(p *costmodel.Params, queueLen, numNodes int) float64 {
	return p.SchedOverheadScale *
		(p.SchedMinMin + p.SchedPerRank*float64(queueLen) + p.SchedPerNode*float64(numNodes))
}
func (*minminSched) Next(q *Queue, t int32) (TaskRef, bool) { return q.popBest(t, costLess) }
func (m *minminSched) Place(t TaskRef, v *View) int {
	m.res.tally(t, v)
	n := eftNode(t, v, &m.res)
	m.res.reset()
	return n
}

// workStealSched models per-node deques with steal-on-idle inside the
// centralized dispatch loop: the thief is the least-loaded up node; it
// pops the newest ready task homed on it (owner-side LIFO keeps the
// cache-warm tail), or steals the oldest ready task outright (thief-side
// FIFO takes the victim's deque head). A ref's home is the up node
// holding its largest located input, falling back to a stable ID hash
// when storage reports no affinity. The chosen node is carried to Place
// through scratch — safe because the capacity-1 master strictly
// alternates Next and Place.
type workStealSched struct {
	v       *View
	pending int
	bound   bool
}

// BindView gives the discipline the live cluster view; without it (plain
// queue use outside the runtime) Next degrades to FIFO order.
func (w *workStealSched) BindView(v *View) { w.v = v }

func (*workStealSched) Policy() Policy { return WorkSteal }
func (*workStealSched) Overhead(p *costmodel.Params, _, _ int) float64 {
	return p.SchedOverheadScale * p.SchedWorkSteal
}

func (w *workStealSched) Next(q *Queue, tenant int32) (TaskRef, bool) {
	w.bound = false
	v := w.v
	thief := -1
	if v != nil && v.NumNodes > 0 {
		thief = v.leastLoaded()
	}
	if thief < 0 {
		return q.PopFrontTenant(tenant)
	}
	// Owner-side pop: newest of the tenant's refs homed on the thief.
	for i := q.count - 1; i >= 0; i-- {
		ref := q.items[q.at(i)]
		if ref.Tenant == tenant && refHome(ref, v) == thief {
			w.pending, w.bound = thief, true
			return q.removeAt(i), true
		}
	}
	// Steal: the tenant's oldest ready ref migrates to the idle node.
	ref, ok := q.PopFrontTenant(tenant)
	if ok {
		w.pending, w.bound = thief, true
	}
	return ref, ok
}

// Place dispatches to the node Next chose, falling back to least-loaded
// when the choice is stale (the node crashed during the decision's
// service time) or when Next never ran (direct Place calls).
func (w *workStealSched) Place(t TaskRef, v *View) int {
	if w.bound {
		n := w.pending
		w.bound = false
		if n < v.NumNodes && v.upNode(n) {
			return n
		}
	}
	return v.leastLoaded()
}

// refHome is the deque a ready task conceptually sits in: the up node
// holding its largest located input (first such input wins byte ties,
// deterministically), else a stable hash of the task ID.
func refHome(t TaskRef, v *View) int {
	best, bestBytes := -1, -1.0
	for _, in := range t.Inputs {
		if n, ok := v.Locate(in.ID); ok && n >= 0 && n < v.NumNodes && v.upNode(n) && in.Bytes > bestBytes {
			best, bestBytes = n, in.Bytes
		}
	}
	if best >= 0 {
		return best
	}
	return t.ID % v.NumNodes
}
