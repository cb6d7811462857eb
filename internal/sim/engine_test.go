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

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(1.0, func() { fired = true })
	e.Schedule(0.5, func() { ev.Cancel() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
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

func TestProcWait(t *testing.T) {
	e := New()
	var stamps []float64
	e.Go("p", func(p *Proc) {
		stamps = append(stamps, p.Now())
		p.Wait(1.5)
		stamps = append(stamps, p.Now())
		p.Wait(0)
		stamps = append(stamps, p.Now())
		p.Wait(2.5)
		stamps = append(stamps, p.Now())
	})
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
	e.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Wait(2)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Wait(1)
		order = append(order, "b1")
		p.Wait(2)
		order = append(order, "b3")
	})
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
	e.Go("outer", func(p *Proc) {
		p.Wait(1)
		p.Engine().Go("inner", func(q *Proc) {
			q.Wait(1)
			if q.Now() != 2 {
				t.Errorf("inner Now = %v, want 2", q.Now())
			}
			done++
		})
		p.Wait(5)
		done++
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := New()
		var stamps []float64
		srv := NewServer(e, "cpu", 2)
		link := NewLink(e, "net", 100, 0.001)
		for i := 0; i < 8; i++ {
			e.Go("w", func(p *Proc) {
				srv.Acquire(p)
				link.Transfer(p, 250)
				p.Wait(0.5)
				srv.Release()
				stamps = append(stamps, p.Now())
			})
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
// Schedule, Reschedule, Cancel and zero-delay traffic issued from inside
// event callbacks, and checks every fired event against a brute-force
// reference: the live pending set keyed by (at, seq), where seq counts
// Schedule and Reschedule calls exactly as the engine does. Every eighth
// trial keeps more than 16384 events pending throughout its traffic phase.
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
				handles []Event    // id -> engine handle
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
					case op < 17:
						r := &live[rng.IntN(len(live))]
						d := delay(50)
						e.Reschedule(handles[r.id], d)
						seq++
						r.at, r.seq = e.Now()+d, seq
					default:
						i := rng.IntN(len(live))
						handles[live[i].id].Cancel()
						drop(i)
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
				id := len(handles)
				seq++
				live = append(live, refEvent{at: e.Now() + d, seq: seq, id: id})
				handles = append(handles, e.Schedule(d, func() { fire(id) }))
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
