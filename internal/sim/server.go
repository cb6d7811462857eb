package sim

import "fmt"

// Server is a capacity-constrained resource with a FIFO wait queue. It
// models CPU cores, GPU devices and the scheduler master thread: at most
// Capacity holders occupy the server at once; further Acquire calls queue
// in arrival order.
//
// The wait queue is a head-index ring buffer, so dequeueing a waiter on
// Release is O(1) instead of sliding the whole slice.
//
// Server also integrates its occupancy over virtual time so experiments can
// report resource utilization (the paper's "resource wastage" discussion).
type Server struct {
	eng  *Engine
	name string
	cap  int

	inUse int

	// FIFO waiters: ring buffer of qlen entries starting at queue[qhead].
	queue []*Cont
	qhead int
	qlen  int

	lastChange float64
	busyInt    float64 // ∫ inUse dt
	acquired   uint64  // total successful acquisitions
}

// NewServer creates a server with the given capacity. Capacity must be
// positive.
func NewServer(e *Engine, name string, capacity int) *Server {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: server %q with capacity %d", name, capacity))
	}
	return &Server{eng: e, name: name, cap: capacity}
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Capacity returns the number of concurrent holders the server admits.
func (s *Server) Capacity() int { return s.cap }

// InUse returns the number of slots currently held.
func (s *Server) InUse() int { return s.inUse }

// QueueLen returns the number of continuations waiting to acquire the
// server.
func (s *Server) QueueLen() int { return s.qlen }

// Acquired returns the total number of successful acquisitions so far.
func (s *Server) Acquired() uint64 { return s.acquired }

// qpush appends a waiter to the ring, growing (and linearizing) it when
// full. Queued waiters count as parked on the engine until qpop hands them
// a slot, which is what lets Run diagnose a deadlock.
func (s *Server) qpush(c *Cont) {
	if s.qlen == len(s.queue) {
		grown := make([]*Cont, max(2*len(s.queue), 8))
		for i := 0; i < s.qlen; i++ {
			grown[i] = s.queue[(s.qhead+i)%len(s.queue)]
		}
		s.queue = grown
		s.qhead = 0
	}
	s.queue[(s.qhead+s.qlen)%len(s.queue)] = c
	s.qlen++
	s.eng.parked++
}

// qpop removes and returns the head waiter.
func (s *Server) qpop() *Cont {
	c := s.queue[s.qhead]
	s.queue[s.qhead] = nil
	s.qhead = (s.qhead + 1) % len(s.queue)
	s.qlen--
	s.eng.parked--
	return c
}

func (s *Server) accumulate() {
	now := s.eng.now
	s.busyInt += float64(s.inUse) * (now - s.lastChange)
	s.lastChange = now
}

// Acquire takes a slot for c. It reports true when a slot was free now;
// otherwise c queues and Acquire reports false: slots are granted strictly
// in arrival order, and c's step runs again once Release has handed it one
// (the releaser takes the slot on c's behalf, so c owns it when it wakes).
func (s *Server) Acquire(c *Cont) bool {
	if s.inUse < s.cap && s.qlen == 0 {
		s.accumulate()
		s.inUse++
		s.acquired++
		return true
	}
	s.qpush(c)
	return false
}

// Release frees one slot. If continuations are queued, the slot is handed
// directly to the head of the queue (so capacity can never be stolen by a
// later arrival) and that continuation resumes at the current instant.
func (s *Server) Release() {
	if s.inUse <= 0 {
		panic(fmt.Sprintf("sim: Release of idle server %q", s.name))
	}
	s.accumulate()
	s.inUse--
	if s.qlen > 0 {
		next := s.qpop()
		s.inUse++ // hand the slot to next before anyone else can take it
		s.acquired++
		next.resume()
	}
}

// BusyTime returns the occupancy integral ∫ inUse dt up to the current
// virtual time, in slot-seconds.
func (s *Server) BusyTime() float64 {
	return s.busyInt + float64(s.inUse)*(s.eng.now-s.lastChange)
}

// ServiceLine is a capacity-1 FIFO dispatch gate: anonymous requests line
// up for the station, and each grant runs the line's onGrant callback
// engine-side at the grant instant. Unlike Server, a request carries no
// continuation — the holder's work is whatever onGrant schedules (typically
// a continuation started once the decision's service time elapses). End
// passes the station to the next request via a grant event at the current
// instant: the exact schedule position a Server's wake-up of that waiter
// would occupy, so event ordering matches the Acquire/Release protocol it
// replaces.
type ServiceLine struct {
	eng     *Engine
	name    string
	onGrant func()
	busy    bool
	waiters int

	grantFn  func() // pre-bound grant, so scheduling one allocates nothing
	acquired uint64
}

// NewServiceLine creates an idle service line.
func NewServiceLine(e *Engine, name string) *ServiceLine {
	s := &ServiceLine{eng: e, name: name}
	s.grantFn = s.grant
	return s
}

// Name returns the line's diagnostic name.
func (s *ServiceLine) Name() string { return s.name }

// Capacity returns 1: a service line serves one request at a time.
func (s *ServiceLine) Capacity() int { return 1 }

// QueueLen returns the number of requests waiting for the station.
func (s *ServiceLine) QueueLen() int { return s.waiters }

// Acquired returns the total number of granted requests so far.
func (s *ServiceLine) Acquired() uint64 { return s.acquired }

// SetOnGrant installs the grant-instant callback. It must be set before the
// simulation runs and is shared by every request.
func (s *ServiceLine) SetOnGrant(fn func()) { s.onGrant = fn }

// Request asks for the station. If it is free the grant happens
// immediately (onGrant runs inline); otherwise the request queues and is
// granted in arrival order as holders call End.
func (s *ServiceLine) Request() {
	if s.busy {
		s.waiters++
		return
	}
	s.busy = true
	s.grant()
}

// grant hands the station to the oldest outstanding request.
func (s *ServiceLine) grant() {
	s.acquired++
	if s.onGrant != nil {
		s.onGrant()
	}
}

// End releases the station. With requests queued it is handed directly to
// the oldest one via a grant event at the current instant.
func (s *ServiceLine) End() {
	if !s.busy {
		panic(fmt.Sprintf("sim: End of idle service line %q", s.name))
	}
	if s.waiters > 0 {
		s.waiters--
		s.eng.Schedule(0, s.grantFn)
		return // busy stays true: the station moved, it never went idle
	}
	s.busy = false
}

// Utilization returns the mean fraction of capacity in use over [0, now].
// It returns 0 before any virtual time has elapsed.
func (s *Server) Utilization() float64 {
	if s.eng.now == 0 {
		return 0
	}
	return s.BusyTime() / (float64(s.cap) * s.eng.now)
}
