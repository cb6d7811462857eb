package sim

import "testing"

// owned returns an owned node bound to fn: the kind of node fixNode
// reschedules in place (in the cluster model, a Link's completion node).
func owned(e *Engine, fn func()) *event {
	return &event{fn: fn, eng: e, index: -1, role: roleLinkDone}
}

// at schedules an owned node bound to fn after delay seconds.
func at(e *Engine, delay float64, fn func()) *event {
	n := owned(e, fn)
	e.schedNode(n, delay)
	return n
}

func TestRescheduleEarlier(t *testing.T) {
	e := New()
	var order []string
	n := at(e, 5.0, func() { order = append(order, "moved") })
	e.Schedule(2.0, func() { order = append(order, "fixed") })
	e.Schedule(1.0, func() { e.fixNode(n, 0.5) }) // 5.0 -> 1.5
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "moved" || order[1] != "fixed" {
		t.Fatalf("order = %v, want [moved fixed]", order)
	}
	if e.Now() != 2.0 {
		t.Fatalf("Now() = %v, want 2.0", e.Now())
	}
}

func TestRescheduleLater(t *testing.T) {
	e := New()
	var order []string
	n := at(e, 1.5, func() { order = append(order, "moved") })
	e.Schedule(2.0, func() { order = append(order, "fixed") })
	e.Schedule(1.0, func() { e.fixNode(n, 4.0) }) // 1.5 -> 5.0
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "fixed" || order[1] != "moved" {
		t.Fatalf("order = %v, want [fixed moved]", order)
	}
	if e.Now() != 5.0 {
		t.Fatalf("Now() = %v, want 5.0", e.Now())
	}
}

// TestRescheduleFreshSeq pins the determinism contract: a rescheduled event
// gets a fresh sequence number, so among same-instant events it fires after
// those already queued, exactly as a newly scheduled one would.
func TestRescheduleFreshSeq(t *testing.T) {
	e := New()
	var order []string
	n := at(e, 1.0, func() { order = append(order, "moved") })
	e.Schedule(2.0, func() { order = append(order, "fixed") })
	e.Schedule(0.5, func() { e.fixNode(n, 1.5) }) // 1.0 -> 2.0, same instant as "fixed"
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "fixed" || order[1] != "moved" {
		t.Fatalf("order = %v, want [fixed moved]", order)
	}
}

// TestRescheduleAt pins where an in-place reschedule leaves a heap node:
// at the new instant, still pending, and fired there.
func TestRescheduleAt(t *testing.T) {
	e := New()
	fired := -1.0
	n := at(e, 5.0, func() { fired = e.Now() })
	e.fixNode(n, 2.5)
	if n.at != 2.5 || n.index == -1 || e.Pending() != 1 {
		t.Fatalf("after fixNode: at = %v, index = %d, Pending() = %d; want 2.5, on the heap, 1",
			n.at, n.index, e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2.5 {
		t.Fatalf("fired at %v, want 2.5", fired)
	}
}

// TestContRestart drives one continuation through a long run of
// generations — each finishes, then restarts itself from a plain event — and
// checks the simulation stays correct on the reused node, that a queued
// resume from a Server counts as parked until its grant, and that nothing
// is left parked or pending at Run exit.
func TestContRestart(t *testing.T) {
	e := New()
	srv := NewServer(e, "cpu", 1)
	ran := 0
	var ch *chain
	restart := func() {
		ch.pc = 0
		ch.c.Start(0)
	}
	ch = spawn(e, 0, wait(0.1), acquire(srv), do(func() {
		ran++
		if ran == 1 {
			// A second chain queues behind this holder across the restart.
			spawn(e, 0, acquire(srv), do(func() {
				if e.parked != 0 {
					t.Errorf("parked = %d once granted, want 0", e.parked)
				}
				srv.Release()
			}))
		}
	}), wait(0.05), do(func() {
		srv.Release()
		if ran < 50 {
			e.Schedule(0.1, restart)
		}
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 50 {
		t.Fatalf("ran = %d, want 50", ran)
	}
	if e.parked != 0 || e.Pending() != 0 {
		t.Fatalf("parked = %d, pending = %d after Run, want 0, 0", e.parked, e.Pending())
	}
}

// TestServerQueueWraparound forces the FIFO ring's head index to wrap by
// cycling far more waiters through the queue than its initial capacity, and
// checks strict arrival-order grants throughout.
func TestServerQueueWraparound(t *testing.T) {
	e := New()
	srv := NewServer(e, "cpu", 1)
	const n = 64
	var grants []int
	for i := 0; i < n; i++ {
		i := i
		spawn(e, 0,
			wait(float64(i)*1e-3), // staggered arrivals: deterministic queue order
			acquire(srv),
			do(func() { grants = append(grants, i) }),
			wait(1), // hold long enough that everyone queues
			do(srv.Release),
		)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(grants) != n {
		t.Fatalf("grants = %d, want %d", len(grants), n)
	}
	for i, g := range grants {
		if g != i {
			t.Fatalf("grant order %v: position %d got waiter %d", grants, i, g)
		}
	}
	if srv.QueueLen() != 0 || srv.InUse() != 0 {
		t.Fatalf("queue = %d, inUse = %d after Run, want 0, 0", srv.QueueLen(), srv.InUse())
	}
	if srv.Acquired() != n {
		t.Fatalf("Acquired() = %d, want %d", srv.Acquired(), n)
	}
}

// TestLinkLatencyOnlyBusyTime pins the occupancy fix: a zero-byte transfer
// pays only latency, but that latency is real link occupancy and must show
// up in BusyTime.
func TestLinkLatencyOnlyBusyTime(t *testing.T) {
	e := New()
	l := NewLink(e, "gpfs", 100, 0.5)
	spawn(e, 0, transfer(l, 0)) // latency-only: busy [0, 0.5]
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(l.BusyTime(), 0.5, 1e-9) {
		t.Fatalf("busy time = %v, want 0.5 (latency-only transfer occupies the link)", l.BusyTime())
	}
	if l.Transfers() != 1 {
		t.Fatalf("transfers = %d, want 1", l.Transfers())
	}
}

// TestLinkOverlappingLatencyBusyTime checks that concurrent latency waits
// are counted as one occupancy interval, not summed per waiter.
func TestLinkOverlappingLatencyBusyTime(t *testing.T) {
	e := New()
	l := NewLink(e, "gpfs", 100, 0.5)
	for i := 0; i < 3; i++ {
		spawn(e, 0, transfer(l, 0))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(l.BusyTime(), 0.5, 1e-9) {
		t.Fatalf("busy time = %v, want 0.5 (overlapping waits count once)", l.BusyTime())
	}
}

// TestLinkLatencyThenFlowBusyTime covers the combined case: latency interval
// followed by the flow interval, with a gap in between from another process.
func TestLinkLatencyThenFlowBusyTime(t *testing.T) {
	e := New()
	l := NewLink(e, "disk", 100, 0.25)
	spawn(e, 0,
		transfer(l, 100), // latency [0,0.25] + flow [0.25,1.25]
		wait(1),          // idle [1.25,2.25]
		transfer(l, 0),   // latency [2.25,2.5]
	)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(l.BusyTime(), 1.5, 1e-9) {
		t.Fatalf("busy time = %v, want 1.5", l.BusyTime())
	}
}

// TestPoolChurnDeterminism runs a workload with heavy event/flow pooling
// twice and demands identical timestamps — pooling must be
// invisible to the simulation.
func TestPoolChurnDeterminism(t *testing.T) {
	run := func() []float64 {
		e := New()
		var stamps []float64
		srv := NewServer(e, "cpu", 3)
		link := NewLink(e, "net", 1000, 0.001)
		for w := 0; w < 4; w++ {
			var ops []op
			for i := 0; i < 10; i++ {
				ops = append(ops, acquire(srv), transfer(link, 100*float64(i+1)), wait(0.01), do(func() {
					srv.Release()
					stamps = append(stamps, e.Now())
				}))
			}
			spawn(e, 0, ops...)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stamp %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestZeroDelayRingOrder pins the zero-delay ring's ordering contract
// against the heap: events at the same instant fire in seq (schedule)
// order regardless of which structure holds them. The critical case is a
// heap event sharing its instant with earlier-pushed ring entries — the
// heap root's smaller seq must win the tie.
func TestZeroDelayRingOrder(t *testing.T) {
	e := New()
	var got []string
	log := func(s string) func() { return func() { got = append(got, s) } }

	e.Schedule(5, func() {
		got = append(got, "H1")
		// Scheduled at t=5 while H2 (also at 5, smaller seq) is still
		// pending on the heap: H2 must fire before these ring entries.
		e.Schedule(0, log("X"))
		e.Schedule(0, log("Y"))
	})
	e.Schedule(5, log("H2"))
	e.Schedule(0, log("A")) // ring at t=0
	e.Schedule(0, log("B"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"A", "B", "H1", "H2", "X", "Y"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestZeroDelayRingReschedule pins rescheduling out of the ring: an event
// that starts on the ring at t=0 and is moved to t=2 (ring → heap) fires
// after the t=1 heap event despite its earlier seq, the stale ring entry
// left behind is skipped silently, and Pending never counts it.
func TestZeroDelayRingReschedule(t *testing.T) {
	e := New()
	var got []string
	log := func(s string) func() { return func() { got = append(got, s) } }

	r := at(e, 0, log("R"))
	e.Schedule(1, log("M"))
	e.fixNode(r, 2)
	if r.index == -1 {
		t.Fatal("rescheduled ring event is off the schedule")
	}
	if p := e.Pending(); p != 2 {
		t.Fatalf("Pending after reschedule = %d, want 2", p)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"M", "R"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestZeroDelayRingRescheduleToNow covers the ring-to-ring reschedule: a
// ring-resident event rescheduled with delay 0 stays at the current
// instant but takes a fresh seq, so it fires after zero-delay events
// scheduled in between.
func TestZeroDelayRingRescheduleToNow(t *testing.T) {
	e := New()
	var got []string
	log := func(s string) func() { return func() { got = append(got, s) } }

	r := at(e, 0, log("R"))
	e.Schedule(0, log("A"))
	e.fixNode(r, 0) // R's seq now follows A's
	e.Schedule(0, log("B"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"A", "R", "B"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("fired %v, want %v", got, want)
	}
}
