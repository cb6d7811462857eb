package sim

import (
	"fmt"
	"math"
)

// event is the engine-internal scheduled-callback node. Nodes are pooled:
// when a pool-owned node fires it is recycled for the next Schedule, so
// steady-state event traffic allocates nothing. Nodes owned by a Cont or a
// Link (role != rolePlain) are never returned to the pool — their owner
// reuses them directly across schedule cycles.
type event struct {
	at  float64
	seq uint64 // tie-breaker: FIFO among events at the same instant

	fn func()

	eng   *Engine
	index int  // heap index, -1 while off-heap
	role  role // fixed when the node is created; counted at dispatch
}

// role says what an event node is for. Every node but a pooled Schedule
// node is owned: its owner reuses it and it never returns to the pool.
type role uint8

const (
	rolePlain    role = iota // pool node from Engine.Schedule
	roleCont                 // a continuation's resume (Cont)
	roleLinkDone             // a Link's completion node
	roleJoin                 // a flow's startup-latency join (busy Link, or zero bytes)
	nRoles
)

// heapEntry is one scheduled event with its ordering key inlined: sift
// comparisons read (at, seq) straight from the heap's backing array instead
// of dereferencing two event pointers per comparison — the event-heap is
// the hottest data structure in the simulator and the pointer chases were
// its dominant cost.
type heapEntry struct {
	at  float64
	seq uint64
	n   *event
}

// eventHeap is a 4-ary min-heap ordered by (at, seq), implemented directly
// on the concrete element type: no container/heap interface dispatch, and
// sift operations move elements with single assignments instead of swaps.
// The shallower 4-ary shape trades a few extra comparisons per level for
// half the levels and better cache behaviour on the hot push/pop path.
type eventHeap []heapEntry

// before reports whether a fires strictly before b.
func before(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h eventHeap) up(i int) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !before(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].n.index = i
		i = parent
	}
	h[i] = e
	e.n.index = i
}

// down sifts h[i] toward the leaves; it reports whether the element moved.
func (h eventHeap) down(i int) bool {
	e := h[i]
	start := i
	sz := len(h)
	for {
		first := i<<2 + 1
		if first >= sz {
			break
		}
		min := first
		last := first + 4
		if last > sz {
			last = sz
		}
		for c := first + 1; c < last; c++ {
			if before(h[c], h[min]) {
				min = c
			}
		}
		if !before(h[min], e) {
			break
		}
		h[i] = h[min]
		h[i].n.index = i
		i = min
	}
	h[i] = e
	e.n.index = i
	return i != start
}

func (h *eventHeap) push(n *event) {
	// Grows only to the run's peak pending-event count, and Arena carries
	// the backing array into the next engine, so a sweep worker pays this
	// growth once rather than per trial.
	*h = append(*h, heapEntry{at: n.at, seq: n.seq, n: n}) //wfsimlint:allow hotalloc
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() *event {
	old := *h
	root := old[0].n
	last := len(old) - 1
	e := old[last]
	old[last] = heapEntry{}
	*h = old[:last]
	if last > 0 {
		(*h)[0] = e
		(*h).down(0)
	}
	root.index = -1
	return root
}

// fix repairs the heap after the element at index i changed its key,
// refreshing the inlined key from the event first.
func (h eventHeap) fix(i int) {
	h[i].at, h[i].seq = h[i].n.at, h[i].n.seq
	if !h.down(i) {
		h.up(i)
	}
}

// ringIndex is the event.index sentinel for nodes parked on the engine's
// zero-delay ring rather than the heap. Off-queue stays exactly
// -1: every "is this node pending" check in the package tests index != -1,
// never index < 0, so ring residency reads as scheduled.
const ringIndex = -2

// ringEntry is one zero-delay ring slot. The seq snapshot detects stale
// entries: rescheduling the node (fixNode) changes n.index or n.seq, and
// the mismatched entry is skipped at pop instead of being searched for and
// removed eagerly.
type ringEntry struct {
	seq uint64
	n   *event
}

// Engine is a deterministic discrete-event simulator. The zero value is not
// usable; construct with New.
//
// # Continuations
//
// Run's goroutine executes the event-dispatch loop and nothing else runs:
// every event is a callback invoked inline. A simulated activity that must
// wait in virtual time is written as a continuation (Cont): an owned event
// node bound to a step function that resumes the activity from an explicit
// state each time the node fires. A blocking primitive (Cont.Wait,
// Server.Acquire, Link.Transfer) either completes in place and reports true
// — the step continues inline — or arranges for the node to fire later and
// reports false, and the step returns to the loop. A park/resume cycle thus
// costs one node push and pop: no goroutine, no stack, no switch. The
// simulation is deterministic regardless of GOMAXPROCS because exactly one
// goroutine ever touches the engine.
type Engine struct {
	now float64
	seq uint64

	// heap holds every pending event not on the zero-delay ring.
	heap eventHeap

	// ring is the zero-delay FIFO: events scheduled at exactly the current
	// instant bypass the heap — ~30% of the events dispatched on the
	// million-task run (every Server grant, and every Link completion that
	// cannot resume its continuation inline, resumes it with a zero-delay
	// schedule), each saving an O(log n) sift pair. Seq order
	// equals append order because seq assignment is globally monotonic, so
	// a plain FIFO preserves the (at, seq) pop contract; pop still compares
	// against the heap root, which wins a same-instant tie on a smaller seq.
	ring     []ringEntry
	ringHead int
	ringLive int // non-stale ring entries (for Pending)

	free     []*event  // recycled pool-owned event nodes
	nodeSlab []event   // current node slab; chunks never move once handed out
	slabs    [][]event // every chunk ever carved, for arena recycling

	err error // sticky corrupt-simulation error discovered during dispatch

	// parked counts continuations queued on a Server: if any remain when
	// the schedule drains, nothing can ever grant them (a deadlock).
	parked int

	stats  Stats
	byRole [nRoles]uint64 // dispatched events by role; they sum to Dispatched

	ran     bool
	stopped bool // Stop was called: a parked continuation is no deadlock
}

// Stats are the engine's deterministic activity counters: the same
// simulation always produces the same values, whatever the host. Dispatched
// plus InPlaceWaits, InPlaceTransfers and InlineResumes counts the run's
// steps: every event run, and every point where a continuation went on
// without one.
type Stats struct {
	// Dispatched counts events popped from the schedule and run.
	Dispatched uint64
	// RingDispatched counts the dispatched events served by the
	// zero-delay ring rather than the heap.
	RingDispatched uint64
	// Resumes, LinkCompletions and Joins split Dispatched by the role of
	// the event: continuation resumes, Link completions and latency joins.
	// A join is dispatched for every latency transfer except one with
	// bytes > 0 on an idle link, and except a zero-byte one that waits in
	// place. Plain Schedule events are Dispatched minus the three.
	Resumes         uint64
	LinkCompletions uint64
	Joins           uint64
	// InPlaceWaits counts waits that advanced the clock without scheduling
	// an event (see Cont.Wait), zero-byte transfers' latencies included.
	InPlaceWaits uint64
	// InPlaceTransfers counts transfers that started on an idle link and
	// finished before any other pending event, so Link.Transfer advanced
	// the clock to the completion instant and scheduled nothing.
	InPlaceTransfers uint64
	// InlineResumes counts continuations a Link completion resumed by
	// running their step as its last act rather than scheduling a
	// delay-0 resume event (see Link.complete).
	InlineResumes uint64
	// PeakPending is the largest number of events pending at once.
	PeakPending int
}

// Stats returns the engine's activity counters so far.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Resumes = e.byRole[roleCont]
	s.LinkCompletions = e.byRole[roleLinkDone]
	s.Joins = e.byRole[roleJoin]
	for _, k := range e.byRole {
		s.Dispatched += k
	}
	return s
}

// New returns an empty engine with the clock at 0.
func New() *Engine { return &Engine{} }

// pushNode enqueues n: on the zero-delay ring when it fires at the current
// instant, on the heap otherwise.
func (e *Engine) pushNode(n *event) {
	if n.at == e.now {
		n.index = ringIndex
		e.ring = append(e.ring, ringEntry{seq: n.seq, n: n})
		e.ringLive++
	} else {
		e.heap.push(n)
	}
	if p := len(e.heap) + e.ringLive; p > e.stats.PeakPending {
		e.stats.PeakPending = p
	}
}

// popNode removes and returns the earliest pending event across the heap
// and the zero-delay ring, or nil when both are empty. Every non-stale ring
// entry fires at the current instant (the clock cannot advance past an
// undrained minimum), so the heap wins only when its root shares the
// instant with a smaller sequence number — the one case where events
// scheduled earlier at this timestamp must fire before a ring entry.
func (e *Engine) popNode() *event {
	for e.ringHead < len(e.ring) {
		ent := &e.ring[e.ringHead]
		if ent.n.index == ringIndex && ent.n.seq == ent.seq {
			break
		}
		ent.n = nil // rescheduled away: reap
		e.ringHead++
	}
	if e.ringHead == len(e.ring) {
		if e.ringHead > 0 {
			e.ring = e.ring[:0]
			e.ringHead = 0
		}
		if len(e.heap) == 0 {
			return nil
		}
		return e.heap.pop()
	}
	ent := &e.ring[e.ringHead]
	if h := e.heap; len(h) > 0 && h[0].at == ent.n.at && h[0].seq < ent.seq {
		return e.heap.pop()
	}
	n := ent.n
	ent.n = nil
	e.ringHead++
	e.ringLive--
	n.index = -1
	e.stats.RingDispatched++
	return n
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// checkDelay panics on the delays the simulated cluster never produces —
// a negative or NaN delay indicates a cost-model bug that must not be
// silently clamped.
func (e *Engine) checkDelay(delay float64) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, e.now))
	}
}

// getNode returns a pool-owned node ready for scheduling. Fresh nodes are
// carved from fixed-capacity slab chunks (a chunk is abandoned, not grown,
// when full — its nodes stay alive through the free list and the heap), so
// the pool warming up costs one allocation per chunk rather than one per
// node.
func (e *Engine) getNode() *event {
	if k := len(e.free); k > 0 {
		n := e.free[k-1]
		e.free[k-1] = nil
		e.free = e.free[:k-1]
		return n
	}
	if len(e.nodeSlab) == cap(e.nodeSlab) {
		e.nodeSlab = make([]event, 0, 256)
		e.slabs = append(e.slabs, e.nodeSlab[:256])
	}
	e.nodeSlab = e.nodeSlab[:len(e.nodeSlab)+1]
	n := &e.nodeSlab[len(e.nodeSlab)-1]
	n.eng = e
	n.index = -1
	return n
}

// putNode recycles a fired pool-owned node.
func (e *Engine) putNode(n *event) {
	n.fn = nil
	e.free = append(e.free, n)
}

// schedNode pushes an off-heap node with a fresh sequence number. It and
// schedAt, which it calls, are the entry points for owned nodes (Cont
// resume events and latency joins go through schedNode, a Link completion
// past a virtual join through schedAt), so seq assignment order — not node
// identity — is what fixes the deterministic event order.
func (e *Engine) schedNode(n *event, delay float64) {
	e.checkDelay(delay)
	e.schedAt(n, e.now+delay)
}

// schedAt is schedNode at the absolute instant at, which the caller has
// derived from checked, non-negative delays, so it never precedes the
// clock. A Link uses it to schedule a completion beyond a join that has
// not happened yet.
func (e *Engine) schedAt(n *event, at float64) {
	if n.index != -1 {
		panic(fmt.Sprintf("sim: event already scheduled at t=%v", n.at))
	}
	n.at = at
	e.seq++
	n.seq = e.seq
	e.pushNode(n)
}

// fixNode reschedules a node in place: if it is on the heap its position is
// repaired with fix (no pop/re-push, no dead entry left behind); otherwise
// it is pushed. Either way it receives a fresh sequence number, so it
// orders among same-instant events exactly as a newly scheduled one.
func (e *Engine) fixNode(n *event, delay float64) {
	e.checkDelay(delay)
	n.at = e.now + delay
	e.seq++
	n.seq = e.seq
	switch {
	case n.index >= 0:
		e.heap.fix(n.index)
	case n.index == ringIndex:
		// The old ring entry went stale the moment seq changed. Re-ring
		// when still at the current instant; otherwise fall back to the
		// heap.
		if n.at == e.now {
			e.ring = append(e.ring, ringEntry{seq: n.seq, n: n})
		} else {
			n.index = -1
			e.ringLive--
			e.pushNode(n)
		}
	default:
		e.pushNode(n)
	}
}

// Schedule registers fn to run after delay seconds of virtual time. A
// negative or NaN delay panics.
func (e *Engine) Schedule(delay float64, fn func()) {
	n := e.getNode()
	n.fn = fn
	e.schedNode(n, delay)
}

// waitInPlace advances the clock by d without scheduling anything when no
// other event can fire first (see waitUntil).
func (e *Engine) waitInPlace(d float64) bool {
	if d >= 0 && e.waitUntil(e.now+d) {
		e.stats.InPlaceWaits++
		return true
	}
	return false
}

// waitUntil is waitInPlace at the absolute instant t, which the caller has
// derived from checked, non-negative delays. It advances the clock to t
// when the resume would fire strictly before every pending event, so
// queueing it would only pop it straight back. The strictness matters: a
// pending event at exactly t holds a smaller seq and must run first, so
// ties report false and the caller schedules.
func (e *Engine) waitUntil(t float64) bool {
	if e.ringLive == 0 && (len(e.heap) == 0 || t < e.heap[0].at) {
		e.now = t
		return true
	}
	return false
}

// dispatch is the event loop: it pops events, advances the clock and runs
// each event's callback inline. It returns when the queue is exhausted or
// the simulation is corrupt (see e.err).
func (e *Engine) dispatch() {
	for {
		n := e.popNode()
		if n == nil {
			return
		}
		if n.at < e.now {
			// Fatal invariant violation: formats once, then the run dies.
			e.err = fmt.Errorf("sim: time went backwards: %v < %v", n.at, e.now) //wfsimlint:allow hotalloc
			return
		}
		e.now = n.at
		e.byRole[n.role]++
		fn := n.fn
		if n.role == rolePlain {
			e.putNode(n)
		}
		fn()
	}
}

// Stop ends the run: it drops every pending event, so Run returns once the
// current callback does, and a stopped run never reports a deadlock,
// whatever is still queued on a Server. Dropped nodes go back off-queue:
// an owned node can be scheduled or re-bound again, and pool nodes rejoin
// the pool when Release hands the storage to the next engine. An event the
// current callback schedules after Stop still fires, so Stop is the run's
// last scheduling act. Stopping twice is a no-op.
func (e *Engine) Stop() {
	e.stopped = true
	for i := e.ringHead; i < len(e.ring); i++ {
		e.ring[i].n.index = -1
		e.ring[i] = ringEntry{}
	}
	e.ring, e.ringHead, e.ringLive = e.ring[:0], 0, 0
	for i := range e.heap {
		e.heap[i].n.index = -1
		e.heap[i] = heapEntry{}
	}
	e.heap = e.heap[:0]
}

// Run executes events until the queue drains or Stop is called. It returns
// an error if the queue drains while continuations are still queued on a
// Server (a deadlock: some activity waits for a slot that will never be
// released), unless the run was stopped. Run may only be called once per
// engine.
func (e *Engine) Run() error {
	if e.ran {
		return fmt.Errorf("sim: Run called twice") //wfsimlint:allow hotalloc
	}
	e.ran = true
	e.dispatch()
	if e.err != nil {
		return e.err
	}
	if e.parked > 0 && !e.stopped {
		// Terminal diagnosis after the queue drained: never steady-state.
		//wfsimlint:allow hotalloc
		return fmt.Errorf("sim: deadlock: %d continuation(s) queued on servers with no pending events at t=%v",
			e.parked, e.now)
	}
	return nil
}

// Pending returns the number of live scheduled events. A ring entry left
// stale by a reschedule never counts.
func (e *Engine) Pending() int { return len(e.heap) + e.ringLive }
