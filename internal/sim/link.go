package sim

import (
	"fmt"
	"math"
)

// completionEpsilon is the residual byte count below which a flow is
// considered finished; it absorbs float64 drift from repeated rate
// recomputation.
const completionEpsilon = 1e-6

// Link is a fluid-flow bandwidth resource: all active transfers progress
// simultaneously, sharing the link's bandwidth equally. Whenever a transfer
// starts or finishes, the per-flow rate is recomputed and the next
// completion is rescheduled. This is the classic fluid ("TCP fair share")
// model used by network/storage simulators; it captures the contention
// effects the paper measures — an abundance of concurrent readers slows
// every reader down — without simulating individual blocks or packets.
//
// Link models PCIe buses, node-local disks, NICs and the shared GPFS
// backend. Latency, if non-zero, is a per-transfer startup delay paid before
// the flow joins the shared pipe (seek/RPC/DMA-setup time); it counts as
// link occupancy for busy-time accounting.
//
// A flow that starts on an idle link joins the pipe virtually: no event
// marks the end of its latency. The flow enters the active set at once with
// lastUpdate set to its join instant, and the completion is scheduled past
// it. The latency is the same for every transfer, so no later flow can join
// before that instant and change the rate. Only a flow with bytes > 0 on an
// idle link skips the join event (its flow.join node): a flow that starts
// while the link is busy schedules one, and so does a zero-byte transfer
// whose latency cannot elapse in place. When no event is due before a
// transfer on an idle link would finish, Transfer finishes it in place and
// no flow is created at all.
//
// The link owns a single completion event node, moved in place with a heap
// fix on every membership change (no removal and re-push, no dead heap
// entries), and a free list of flow structs, so steady-state transfer
// traffic allocates nothing.
type Link struct {
	eng     *Engine
	name    string
	bw      float64 // bytes per second
	latency float64 // seconds per transfer

	active    []*flow // insertion order: deterministic completion handling
	freeFlows []*flow

	lastUpdate float64 // instant of the last advance, or of a virtual join still to come
	next       event   // owned completion node, on-heap while target != nil
	target     *flow   // earliest-finishing active flow; the completion drains it

	bytesMoved float64 // total bytes fully transferred
	transfers  uint64
	busyInt    float64 // ∫ [occupied] dt, occupancy = active flows + latency waits
	busySince  float64 // valid when occ > 0
	occ        int     // active flows + transfers paying their startup latency
}

type flow struct {
	remaining float64
	total     float64
	cont      *Cont
	link      *Link
	join      event // owned node: fires when the startup latency elapses
}

// NewLink creates a link with the given bandwidth (bytes/second) and
// per-transfer latency (seconds). Bandwidth must be positive and finite;
// latency must be non-negative.
func NewLink(e *Engine, name string, bandwidth, latency float64) *Link {
	if bandwidth <= 0 || math.IsInf(bandwidth, 0) || math.IsNaN(bandwidth) {
		panic(fmt.Sprintf("sim: link %q with invalid bandwidth %v", name, bandwidth))
	}
	if latency < 0 || math.IsNaN(latency) {
		panic(fmt.Sprintf("sim: link %q with invalid latency %v", name, latency))
	}
	l := &Link{eng: e, name: name, bw: bandwidth, latency: latency}
	// Pre-size for a few dozen concurrent flows: links on the simulated
	// hot path (the shared storage backend) see whole task waves at once,
	// and growing these under load is measurable allocator traffic.
	l.active = make([]*flow, 0, 32)
	l.freeFlows = make([]*flow, 0, 32)
	l.next.eng = e
	l.next.index = -1
	l.next.role = roleLinkDone
	l.next.fn = l.complete
	return l
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Bandwidth returns the link's total bandwidth in bytes per second.
func (l *Link) Bandwidth() float64 { return l.bw }

// Active returns the number of flows currently sharing the link.
func (l *Link) Active() int { return len(l.active) }

// BytesMoved returns the total bytes completed over the link.
func (l *Link) BytesMoved() float64 { return l.bytesMoved }

// Transfers returns the number of completed transfers.
func (l *Link) Transfers() uint64 { return l.transfers }

// BusyTime returns the total virtual time during which the link was
// occupied: at least one flow active or at least one transfer paying its
// startup latency (a latency-only transfer is real occupancy too).
func (l *Link) BusyTime() float64 {
	b := l.busyInt
	if l.occ > 0 {
		b += l.eng.now - l.busySince
	}
	return b
}

// occupy/vacate maintain the busy-time integral over the link's occupancy
// count (active flows + latency waiters).
func (l *Link) occupy() {
	if l.occ == 0 {
		l.busySince = l.eng.now
	}
	l.occ++
}

func (l *Link) vacate() {
	l.occ--
	if l.occ == 0 {
		l.busyInt += l.eng.now - l.busySince
	}
}

// rate returns the current per-flow rate in bytes/second.
func (l *Link) rate() float64 { return l.bw / float64(len(l.active)) }

// advance applies progress to all active flows for the time elapsed since
// the last update.
func (l *Link) advance() {
	if len(l.active) > 0 {
		progressed := (l.eng.now - l.lastUpdate) * l.rate()
		for _, f := range l.active {
			f.remaining -= progressed
		}
	}
	l.lastUpdate = l.eng.now
}

// getFlow/putFlow recycle flow structs across transfers. A flow's join
// node and its callback are bound once at creation and reused for the
// struct's whole pooled lifetime.
func (l *Link) getFlow(bytes float64, c *Cont) *flow {
	if k := len(l.freeFlows); k > 0 {
		f := l.freeFlows[k-1]
		l.freeFlows[k-1] = nil
		l.freeFlows = l.freeFlows[:k-1]
		f.remaining, f.total, f.cont = bytes, bytes, c
		return f
	}
	f := &flow{remaining: bytes, total: bytes, cont: c, link: l}
	f.join.eng = l.eng
	f.join.index = -1
	f.join.role = roleJoin
	f.join.fn = f.joinLatent
	return f
}

func (l *Link) putFlow(f *flow) {
	f.cont = nil
	l.freeFlows = append(l.freeFlows, f)
}

// drainDelay returns the time flow f takes to drain at the current rate.
func (l *Link) drainDelay(f *flow) float64 {
	delay := f.remaining / l.rate()
	if delay < 0 {
		delay = 0
	}
	return delay
}

// retarget points the pending completion event at flow f. All flows drain
// at the same rate, so f stays the earliest finisher until the next
// membership change. The rate is constant between membership changes, so at
// the event instant f's remainder is zero up to float64 drift; complete
// forces it to zero, which guarantees progress even when the delay is too
// small to advance the clock (a tiny residue absorbed by now+delay == now
// would otherwise livelock). The completion node gets a fresh sequence
// number, so it orders among same-instant events as a newly scheduled one.
func (l *Link) retarget(f *flow) {
	l.target = f
	l.eng.fixNode(&l.next, l.drainDelay(f))
}

// complete fires when the target flow has drained; it removes the target
// plus any other flow within float64 drift of empty, resumes their
// continuations in insertion order, and retargets the earliest remaining
// flow — found during the same removal sweep, not by a second scan.
//
// A lone drained flow's delay-0 resume would be the next event dispatched
// when nothing else is due at the current instant once the link is
// retargeted, so complete runs that continuation's step itself instead, as
// its last act: the same instant and the same order, one event fewer. When
// the retarget lands at the current instant too, the resume is scheduled
// as usual, before the retarget, so its seq still precedes the new
// completion's.
func (l *Link) complete() {
	if l.target != nil {
		l.target.remaining = 0
	}
	l.target = nil
	l.advance()
	kept := l.active[:0]
	var min *flow
	var first *Cont // the first drained flow's continuation, resumed below
	drained := 0
	for _, f := range l.active {
		if f.remaining <= completionEpsilon+1e-12*f.total {
			l.transfers++
			l.bytesMoved += f.total
			drained++
			switch drained {
			case 1:
				first = f.cont
			case 2:
				first.resume()
				f.cont.resume()
			default:
				f.cont.resume()
			}
			l.putFlow(f)
			l.vacate()
		} else {
			kept = append(kept, f)
			if min == nil || f.remaining < min.remaining {
				min = f
			}
		}
	}
	for i := len(kept); i < len(l.active); i++ {
		l.active[i] = nil
	}
	l.active = kept
	// waitUntil(now) holds when no pending event is due at the current
	// instant; the retarget must not land there either.
	e := l.eng
	inline := drained == 1 && (min == nil || e.now+l.drainDelay(min) > e.now) && e.waitUntil(e.now)
	if drained == 1 && !inline {
		first.resume()
	}
	if min != nil {
		l.retarget(min)
	}
	if inline {
		e.stats.InlineResumes++
		first.ev.fn()
	}
}

// add makes f an active flow occupying the link.
func (l *Link) add(f *flow) {
	l.occupy()
	l.active = append(l.active, f)
}

// joinNow adds a flow to the shared pipe at the current instant.
func (l *Link) joinNow(f *flow) {
	l.advance()
	l.add(f)
	// Incremental min tracking: the new flow preempts the current target
	// only if it finishes strictly earlier; either way the shared rate
	// changed, so the completion event moves.
	if l.target == nil || f.remaining < l.target.remaining {
		l.retarget(f)
	} else {
		l.retarget(l.target)
	}
}

// joinLatent fires when a flow's startup latency elapses: the latency
// occupancy converts into flow occupancy and the flow joins the pipe. A
// zero-byte flow has nothing to stream, so the transfer is complete: the
// flow is recycled and its continuation's step runs inline, in this very
// event, at the instant and schedule position of a plain latency Wait.
func (f *flow) joinLatent() {
	l := f.link
	l.vacate()
	if f.total == 0 {
		l.transfers++
		c := f.cont
		l.putFlow(f)
		c.ev.fn()
		return
	}
	l.joinNow(f)
}

// Transfer moves bytes over the link on behalf of continuation c.
// Concurrent transfers share the bandwidth equally. A zero-byte transfer
// pays only the latency.
//
// Transfer reports true when the transfer completed in place, and c's step
// simply continues: a zero-byte transfer on a latency-free link, a
// zero-byte transfer whose latency elapsed with no other event due first,
// or a transfer that starts on an idle link and completes strictly before
// every pending event. Otherwise it reports false and c's step runs again
// at the instant the transfer completes, resumed by the completion event.
//
// A transfer that starts on an idle link (no active flow, no transfer
// inside its latency) joins the pipe virtually at now+latency: it runs
// alone until (now+latency) + bytes/bandwidth, the instant a join event
// would have computed, unless a later transfer joins first. When no event
// is due before that instant, nothing can join, so the clock advances
// there in place (the check Cont.Wait makes) and the transfer costs no
// event. Otherwise the completion is its only event. Its sequence number is
// taken here, not at the join, so it can order differently only against an
// event due at exactly that instant and scheduled inside the latency
// window. On a busy link the join is a scheduled inline event rather than a
// wake-up of c, so the continuation is resumed exactly once per transfer;
// the join event takes the schedule position a latency Wait issued here
// would take, so ordering matches a wait-then-join.
func (l *Link) Transfer(c *Cont, bytes float64) bool {
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("sim: transfer of %v bytes on link %q", bytes, l.name))
	}
	if bytes > 0 && l.occ == 0 {
		// Occupancy runs unbroken from now: the busy-time split a join
		// event would book (vacate, then occupy, at the join instant)
		// changes the integral by float rounding alone, so none is booked.
		start, join := l.eng.now, l.eng.now+l.latency
		done := join + bytes/l.bw
		if l.eng.waitUntil(done) {
			l.busyInt += done - start
			l.transfers++
			l.bytesMoved += bytes
			l.eng.stats.InPlaceTransfers++
			return true
		}
		f := l.getFlow(bytes, c)
		l.add(f)
		l.lastUpdate = join
		l.target = f
		l.eng.schedAt(&l.next, done)
		return false
	}
	if l.latency > 0 {
		l.occupy()
		if bytes == 0 && l.eng.waitInPlace(l.latency) {
			l.vacate()
			l.transfers++
			return true
		}
		f := l.getFlow(bytes, c)
		l.eng.schedNode(&f.join, l.latency)
		return false
	}
	if bytes == 0 {
		l.transfers++
		return true
	}
	l.joinNow(l.getFlow(bytes, c))
	return false
}
