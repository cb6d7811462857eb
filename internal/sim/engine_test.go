package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(2.0, func() { got = append(got, 3) })
	e.Schedule(1.0, func() { got = append(got, 1) })
	e.Schedule(1.0, func() { got = append(got, 2) }) // same instant: FIFO
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 2.0 {
		t.Fatalf("Now() = %v, want 2.0", e.Now())
	}
}

func TestScheduleZeroDelayDuringRun(t *testing.T) {
	e := New()
	var order []string
	e.Schedule(1.0, func() {
		order = append(order, "a")
		e.Schedule(0, func() { order = append(order, "b") })
	})
	e.Schedule(1.0, func() { order = append(order, "c") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Zero-delay events scheduled at t are dispatched after events already
	// queued for t (they get a later sequence number).
	want := "acb"
	var s string
	for _, x := range order {
		s += x
	}
	if s != want {
		t.Fatalf("order = %q, want %q", s, want)
	}
}

func TestScheduleInvalidDelayPanics(t *testing.T) {
	for _, d := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Schedule(%v) did not panic", d)
				}
			}()
			New().Schedule(d, func() {})
		}()
	}
}

func TestRunTwice(t *testing.T) {
	e := New()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("second Run did not error")
	}
}

// TestStop pins how a run ends early: Stop inside a callback drops every
// pending event, heap and ring alike, so Run returns nil once that callback
// does, even with a continuation still queued on a Server. Pending is then
// 0, a second Stop is a no-op, and the dropped nodes are off the schedule:
// an owned one can be re-bound, and the engine's storage serves the next
// run through an arena.
func TestStop(t *testing.T) {
	var a Arena
	e := NewIn(&a)
	srv := NewServer(e, "cpu", 1)
	holder := spawn(e, 0, acquire(srv), wait(10), do(srv.Release))
	spawn(e, 0, acquire(srv), do(func() { t.Error("parked continuation ran after Stop") }))
	stopped := false
	e.Schedule(1, func() {
		e.Schedule(0, func() { t.Error("ring event fired after Stop") })
		e.Stop()
		stopped = true
		if p := e.Pending(); p != 0 {
			t.Errorf("Pending() right after Stop = %d, want 0", p)
		}
	})
	e.Schedule(1, func() { t.Error("same-instant event fired after Stop") })
	e.Schedule(2, func() { t.Error("later event fired after Stop") })
	if err := e.Run(); err != nil {
		t.Fatalf("Run() = %v, want nil for a stopped run", err)
	}
	if !stopped || e.Now() != 1 {
		t.Fatalf("stopped = %v at t=%v, want true at 1", stopped, e.Now())
	}
	if srv.QueueLen() != 1 {
		t.Fatalf("server queue = %d, want the parked continuation", srv.QueueLen())
	}
	e.Stop()
	if p := e.Pending(); p != 0 {
		t.Fatalf("Pending() after a second Stop = %d, want 0", p)
	}
	e.Release(&a)

	e2 := NewIn(&a)
	e2.Bind(&holder.c, func() {}) // panics if the dropped node were still scheduled
	fired := false
	e2.Schedule(1, func() { fired = true })
	if err := e2.Run(); err != nil || !fired {
		t.Fatalf("run on the released arena: err = %v, fired = %v", err, fired)
	}
}

func TestProcWait(t *testing.T) {
	e := New()
	var stamps []float64
	stamp := do(func() { stamps = append(stamps, e.Now()) })
	spawn(e, 0, stamp, wait(1.5), stamp, wait(0), stamp, wait(2.5), stamp)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1.5, 1.5, 4.0}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("stamps = %v, want %v", stamps, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New()
	var order []string
	log := func(s string) op { return do(func() { order = append(order, s) }) }
	spawn(e, 0, log("a0"), wait(2), log("a2"))
	spawn(e, 0, log("b0"), wait(1), log("b1"), wait(2), log("b3"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNestedGo(t *testing.T) {
	e := New()
	done := 0
	spawn(e, 0,
		wait(1),
		do(func() {
			spawn(e, 0, wait(1), do(func() {
				if e.Now() != 2 {
					t.Errorf("inner Now = %v, want 2", e.Now())
				}
				done++
			}))
		}),
		wait(5),
		do(func() { done++ }),
	)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
}

// TestStatsCounters pins the engine counters on a two-chain interleaving:
// a start and every queued resume count as dispatched events, while a wait
// that no pending event can overtake advances the clock in place. The two
// starts fire at the current instant, so the zero-delay ring serves them;
// the resumes at 2 and 3 come off the heap. All four are continuation
// resumes.
func TestStatsCounters(t *testing.T) {
	e := New()
	spawn(e, 0, wait(2))
	spawn(e, 0, wait(1), wait(2)) // wait(1) ends before the other chain's resume at 2
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := Stats{Dispatched: 4, RingDispatched: 2, Resumes: 4, InPlaceWaits: 1, PeakPending: 2}
	if got := e.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := New()
		var stamps []float64
		srv := NewServer(e, "cpu", 2)
		link := NewLink(e, "net", 100, 0.001)
		for i := 0; i < 8; i++ {
			spawn(e, 0, acquire(srv), transfer(link, 250), wait(0.5), do(func() {
				srv.Release()
				stamps = append(stamps, e.Now())
			}))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return stamps
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run mismatch at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// refEvent is the brute-force reference's view of one pending event.
type refEvent struct {
	at  float64
	seq uint64
	id  int
}

// refCompare orders reference events by (at, seq).
func refCompare(a, b refEvent) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// TestEngineOrderMatchesReference drives the engine through seeded random
// scheduling, in-place rescheduling and zero-delay traffic issued from
// inside event callbacks, and checks every fired event against a
// brute-force reference: the live pending set keyed by (at, seq), where seq
// counts schedules and reschedules exactly as the engine does. Events with
// even IDs are pool nodes from Schedule; odd IDs are owned nodes, which
// fixNode reschedules in place. Every eighth trial keeps more than 16384
// events pending throughout its traffic phase.
func TestEngineOrderMatchesReference(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(0x1adde7, uint64(trial)))
			bulk := 2000
			if trial%8 == 7 {
				bulk = 20000
			}
			e := New()
			var (
				live    []refEvent // pending events, unordered until drained
				nodes   []*event   // id -> owned node; nil for a pool node
				seq     uint64
				ops     = 4000 // traffic budget; then the queue drains
				drained bool   // live is sorted and consumed front to back
				fired   int
			)
			drop := func(i int) {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			delay := func(scale float64) float64 {
				switch rng.IntN(16) {
				case 0, 1:
					return 0 // same-instant events exercise the ring and seq ties
				case 2:
					return rng.Float64() * scale * 1e6 // far future
				}
				return rng.Float64() * scale
			}
			var schedule func(d float64)
			fire := func(id int) {
				fired++
				var want refEvent
				if drained {
					want, live = live[0], live[1:]
				} else {
					m := 0
					for i := range live {
						if refCompare(live[i], live[m]) < 0 {
							m = i
						}
					}
					want = live[m]
					drop(m)
				}
				if id != want.id || e.Now() != want.at {
					t.Fatalf("fire %d: got event %d at t=%v, reference wants event %d at t=%v",
						fired, id, e.Now(), want.id, want.at)
				}
				for k := rng.IntN(5); k > 0 && ops > 0; k-- {
					ops--
					switch op := rng.IntN(20); {
					case op < 12 || len(live) == 0:
						schedule(delay(100))
					default:
						r := &live[rng.IntN(len(live))]
						if nodes[r.id] == nil {
							break // pool nodes are fire-and-forget
						}
						d := delay(50)
						e.fixNode(nodes[r.id], d)
						seq++
						r.at, r.seq = e.Now()+d, seq
					}
				}
				if ops == 0 && !drained {
					if bulk > 16384 && len(live) <= 16384 {
						t.Fatalf("traffic ended with only %d events pending", len(live))
					}
					slices.SortFunc(live, refCompare)
					drained = true
				}
				if got := e.Pending(); got != len(live) {
					t.Fatalf("fire %d: Pending() = %d, reference holds %d", fired, got, len(live))
				}
			}
			schedule = func(d float64) {
				id := len(nodes)
				seq++
				live = append(live, refEvent{at: e.Now() + d, seq: seq, id: id})
				if id%2 == 0 {
					nodes = append(nodes, nil)
					e.Schedule(d, func() { fire(id) })
				} else {
					nodes = append(nodes, at(e, d, func() { fire(id) }))
				}
			}
			for i := 0; i < bulk; i++ {
				schedule(delay(100))
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if len(live) != 0 || e.Pending() != 0 {
				t.Fatalf("run ended with %d reference and %d engine events pending", len(live), e.Pending())
			}
		})
	}
}
