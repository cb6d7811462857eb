package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLinkSingleTransfer(t *testing.T) {
	e := New()
	l := NewLink(e, "disk", 100, 0) // 100 B/s
	var done float64
	spawn(e, 0, transfer(l, 500), do(func() { done = e.Now() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(done, 5, 1e-9) {
		t.Fatalf("transfer time = %v, want 5", done)
	}
	if l.BytesMoved() != 500 {
		t.Fatalf("bytes moved = %v, want 500", l.BytesMoved())
	}
	if l.Transfers() != 1 {
		t.Fatalf("transfers = %d, want 1", l.Transfers())
	}
}

func TestLinkLatency(t *testing.T) {
	e := New()
	l := NewLink(e, "gpfs", 100, 0.25)
	var done float64
	spawn(e, 0, transfer(l, 100), do(func() { done = e.Now() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(done, 1.25, 1e-9) {
		t.Fatalf("transfer time = %v, want 1.25", done)
	}
}

func TestLinkZeroBytes(t *testing.T) {
	e := New()
	l := NewLink(e, "net", 100, 0.5)
	var done float64
	spawn(e, 0, transfer(l, 0), do(func() { done = e.Now() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(done, 0.5, 1e-9) {
		t.Fatalf("zero-byte transfer time = %v, want 0.5 (latency only)", done)
	}
	if l.Transfers() != 1 {
		t.Fatalf("transfers = %d, want 1", l.Transfers())
	}
}

func TestLinkFairShare(t *testing.T) {
	// Two equal simultaneous transfers each see half the bandwidth and
	// complete together at 2x the solo time.
	e := New()
	l := NewLink(e, "disk", 100, 0)
	var t1, t2 float64
	spawn(e, 0, transfer(l, 100), do(func() { t1 = e.Now() }))
	spawn(e, 0, transfer(l, 100), do(func() { t2 = e.Now() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(t1, 2, 1e-9) || !almostEqual(t2, 2, 1e-9) {
		t.Fatalf("completion times = %v, %v; want 2, 2", t1, t2)
	}
}

func TestLinkUnevenShare(t *testing.T) {
	// A 100B and a 300B transfer start together on a 100 B/s link.
	// Phase 1: both at 50 B/s. Small one finishes at t=2 (300-100=200 left
	// on the big one). Phase 2: big one alone at 100 B/s, finishes at t=4.
	e := New()
	l := NewLink(e, "disk", 100, 0)
	var small, big float64
	spawn(e, 0, transfer(l, 100), do(func() { small = e.Now() }))
	spawn(e, 0, transfer(l, 300), do(func() { big = e.Now() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(small, 2, 1e-6) {
		t.Fatalf("small completion = %v, want 2", small)
	}
	if !almostEqual(big, 4, 1e-6) {
		t.Fatalf("big completion = %v, want 4", big)
	}
}

func TestLinkLateJoiner(t *testing.T) {
	// A 200B transfer starts at t=0 alone (100 B/s). At t=1 a 50B transfer
	// joins: both at 50 B/s. Joiner finishes at t=2; first has 100-50=50
	// left, alone again at 100 B/s, finishes at t=2.5.
	e := New()
	l := NewLink(e, "disk", 100, 0)
	var first, joiner float64
	spawn(e, 0, transfer(l, 200), do(func() { first = e.Now() }))
	spawn(e, 0, wait(1), transfer(l, 50), do(func() { joiner = e.Now() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(joiner, 2, 1e-6) {
		t.Fatalf("joiner completion = %v, want 2", joiner)
	}
	if !almostEqual(first, 2.5, 1e-6) {
		t.Fatalf("first completion = %v, want 2.5", first)
	}
}

func TestLinkBusyTime(t *testing.T) {
	e := New()
	l := NewLink(e, "disk", 100, 0)
	spawn(e, 0,
		transfer(l, 100), // busy [0,1]
		wait(1),          // idle [1,2]
		transfer(l, 200), // busy [2,4]
	)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(l.BusyTime(), 3, 1e-6) {
		t.Fatalf("busy time = %v, want 3", l.BusyTime())
	}
}

func TestLinkInvalidConstruction(t *testing.T) {
	for _, tc := range []struct{ bw, lat float64 }{
		{0, 0}, {-1, 0}, {math.Inf(1), 0}, {math.NaN(), 0}, {1, -1}, {1, math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink(bw=%v, lat=%v) did not panic", tc.bw, tc.lat)
				}
			}()
			NewLink(New(), "bad", tc.bw, tc.lat)
		}()
	}
}

// TestLinkConservation is a property test: for random concurrent transfers,
// (a) all bytes are delivered, (b) the makespan is at least
// totalBytes/bandwidth (the link cannot exceed its capacity), and (c) each
// individual transfer takes at least bytes/bandwidth.
func TestLinkConservation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%20 + 1
		rng := rand.New(rand.NewPCG(seed, 7))
		e := New()
		bw := 50 + rng.Float64()*1000
		l := NewLink(e, "link", bw, 0)
		total := 0.0
		lastArrival := 0.0
		ok := true
		for i := 0; i < n; i++ {
			bytes := 1 + rng.Float64()*10000
			start := rng.Float64() * 5
			total += bytes
			if start > lastArrival {
				lastArrival = start
			}
			var t0 float64
			spawn(e, 0, wait(start), do(func() { t0 = e.Now() }), transfer(l, bytes), do(func() {
				if e.Now()-t0 < bytes/bw-1e-6 {
					ok = false // faster than line rate: impossible
				}
			}))
		}
		if err := e.Run(); err != nil {
			return false
		}
		if !almostEqual(l.BytesMoved(), total, 1e-3*total) {
			return false
		}
		// All arrivals happen by lastArrival; afterwards the link drains at
		// full rate, so makespan >= total/bw is only guaranteed from t=0 if
		// arrivals are at 0. Weaker but always-true bound:
		if e.Now() < total/bw-1e-6 {
			return false
		}
		return ok && l.Active() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLinkTransferEvents pins when a lone transfer completes and what it
// costs in events. On an idle link with nothing else pending the transfer
// finishes in place at exactly (t0+λ)+b/bw and costs no event. With a
// plain event due first, the flow joins virtually, so the completion is the
// transfer's only event, and it resumes the continuation inline. A
// zero-byte transfer pays its latency in place, or, with a plain event due
// inside its latency, through a join event on the idle link; a
// latency-free link never had a join to skip.
func TestLinkTransferEvents(t *testing.T) {
	const t0, bw = 0.1, 100.0
	for _, tc := range []struct {
		name       string
		lat, bytes float64
		pending    float64 // instant of a plain event, if > 0
		want       Stats
	}{
		{"idle latency link", 0.3, 70, 0,
			Stats{Dispatched: 1, Resumes: 1, InPlaceTransfers: 1, PeakPending: 1}},
		{"idle latency link behind a pending event", 0.3, 70, 0.2,
			Stats{Dispatched: 3, Resumes: 1, LinkCompletions: 1, InlineResumes: 1, PeakPending: 2}},
		{"zero bytes", 0.3, 0, 0,
			Stats{Dispatched: 1, Resumes: 1, InPlaceWaits: 1, PeakPending: 1}},
		{"zero bytes behind a pending event", 0.3, 0, 0.2,
			Stats{Dispatched: 3, Resumes: 1, Joins: 1, PeakPending: 2}},
		{"latency-free", 0, 70, 0,
			Stats{Dispatched: 1, Resumes: 1, InPlaceTransfers: 1, PeakPending: 1}},
		{"latency-free zero bytes", 0, 0, 0,
			Stats{Dispatched: 1, Resumes: 1, PeakPending: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			l := NewLink(e, "gpfs", bw, tc.lat)
			if tc.pending > 0 {
				e.Schedule(tc.pending, func() {})
			}
			done := -1.0
			spawn(e, t0, transfer(l, tc.bytes), do(func() { done = e.Now() }))
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if want := (t0 + tc.lat) + tc.bytes/bw; done != want {
				t.Errorf("completed at %v, want exactly %v", done, want)
			}
			if got := e.Stats(); got != tc.want {
				t.Errorf("Stats() = %+v, want %+v", got, tc.want)
			}
			if l.Transfers() != 1 || l.Active() != 0 {
				t.Errorf("transfers = %d, active = %d; want 1, 0", l.Transfers(), l.Active())
			}
		})
	}
}

// TestLinkTransferInPlace pins the in-place rule for a transfer that
// starts on an idle link: it finishes in place only when its completion
// instant lies strictly before every pending event. A plain event due
// inside the transfer, or at exactly its completion instant, runs first and
// the transfer takes the scheduled path. Either way it completes at exactly
// (t0+λ)+b/bw and books the same busy time, transfer count and bytes.
func TestLinkTransferInPlace(t *testing.T) {
	t0, lat, bytes, bw := 0.1, 0.3, 70.0, 100.0
	done := (t0 + lat) + bytes/bw
	for _, tc := range []struct {
		name    string
		plain   float64 // instant of a plain event, if > 0
		inPlace bool
	}{
		{"nothing pending", 0, true},
		{"plain event inside the latency", t0 + lat/2, false},
		{"plain event while streaming", (t0 + lat + done) / 2, false},
		{"plain event at the completion instant", done, false},
		{"plain event after the completion", done + 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			l := NewLink(e, "gpfs", bw, lat)
			var got []string
			record := func(name string) {
				got = append(got, fmt.Sprintf("%s@%v", name, e.Now()))
			}
			want := []string{fmt.Sprintf("done@%v", done)}
			if tc.plain > 0 {
				e.Schedule(tc.plain, func() { record("plain") })
				plain := fmt.Sprintf("plain@%v", tc.plain)
				if tc.plain <= done {
					want = append([]string{plain}, want...)
				} else {
					want = append(want, plain)
				}
			}
			var inPlace bool
			spawn(e, t0,
				func(c *Cont) bool { inPlace = l.Transfer(c, bytes); return inPlace },
				do(func() { record("done") }))
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("events = %v, want %v", got, want)
			}
			if inPlace != tc.inPlace {
				t.Fatalf("Transfer reported %v, want %v", inPlace, tc.inPlace)
			}
			if n := e.Stats().InPlaceTransfers; n != 0 != tc.inPlace || n > 1 {
				t.Fatalf("%d in-place transfers, want in place = %v", n, tc.inPlace)
			}
			if l.BusyTime() != done-t0 || l.Transfers() != 1 || l.BytesMoved() != bytes {
				t.Fatalf("busy %v, %d transfers, %v bytes; want %v, 1, %v",
					l.BusyTime(), l.Transfers(), l.BytesMoved(), done-t0, bytes)
			}
		})
	}
}

// TestLinkInlineResume pins when a link completion runs the drained
// continuation's step itself instead of scheduling its resume: only when it
// drains exactly one flow and nothing else is due at the current instant,
// the link's retargeted completion included.
func TestLinkInlineResume(t *testing.T) {
	type start struct {
		at, bytes float64
	}
	for _, tc := range []struct {
		name   string
		bw     float64
		starts []start
		plain  [2]float64 // a plain event scheduled at plain[0] for plain[1], if any
		want   []string
		stats  Stats
	}{
		// One completion drains all three: resumes run in insertion order.
		{"three flows drain together", 100, []start{{0, 100}, {0, 100}, {0, 100}}, [2]float64{},
			[]string{"0@3", "1@3", "2@3"},
			Stats{Dispatched: 7, RingDispatched: 6, Resumes: 6, LinkCompletions: 1, PeakPending: 3}},
		// At t=1e12 a 1e-5 B residue takes 1e-5 s, under half an ulp of the
		// clock: flow 1's completion lands at the current instant, so flow
		// 0's resume is scheduled ahead of it.
		{"peer retargets to the current instant", 1, []start{{1e12, 100}, {1e12, 100.00001}}, [2]float64{},
			[]string{"0@1.0000000002e+12", "1@1.0000000002e+12"},
			Stats{Dispatched: 5, RingDispatched: 2, Resumes: 3, LinkCompletions: 2, InlineResumes: 1, PeakPending: 2}},
		// A plain event scheduled after the completion, due at its instant,
		// holds a later seq yet is pending when the completion fires, so
		// the resume is scheduled and runs after it.
		{"plain event due at the completion instant", 100, []start{{0, 100}}, [2]float64{0.5, 1},
			[]string{"plain@1", "0@1"},
			Stats{Dispatched: 5, RingDispatched: 2, Resumes: 2, LinkCompletions: 1, PeakPending: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			l := NewLink(e, "disk", tc.bw, 0)
			var got []string
			record := func(name string) {
				got = append(got, fmt.Sprintf("%s@%v", name, e.Now()))
			}
			for i, s := range tc.starts {
				spawn(e, s.at, transfer(l, s.bytes), do(func() { record(fmt.Sprint(i)) }))
			}
			if p := tc.plain; p[1] > 0 {
				e.Schedule(p[0], func() { e.Schedule(p[1]-p[0], func() { record("plain") }) })
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("completions = %v, want %v", got, tc.want)
			}
			if st := e.Stats(); st != tc.stats {
				t.Fatalf("Stats() = %+v, want %+v", st, tc.stats)
			}
		})
	}
}

// TestLinkDeferredJoinOverlap starts transfer A (100 B) on an idle 100 B/s
// link with 0.25 s latency at t=0, so A joins virtually at 0.25, and issues
// transfer B against it. B finds the link busy and schedules its join event.
// The instants are hand-computed from the fluid model and exact in float64.
func TestLinkDeferredJoinOverlap(t *testing.T) {
	for _, tc := range []struct {
		name     string
		at, size float64 // B's issue instant and size
		want     []string
	}{
		// A streams alone over [0.25, 0.375] (12.5 B), then both share:
		// B's 50 B take 1 s; A's last 37.5 B run alone.
		{"inside the latency window", 0.125, 50, []string{"B@1.375", "A@1.75"}},
		// A streams alone over [0.25, 0.75] (50 B); B's 25 B take 0.5 s
		// at half rate; A's last 25 B run alone.
		{"while streaming", 0.5, 25, []string{"B@1.25", "A@1.5"}},
		// Both join at 0.25 and drain together; resumes follow issue order.
		{"same instant", 0, 100, []string{"A@2.25", "B@2.25"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			l := NewLink(e, "gpfs", 100, 0.25)
			var got []string
			record := func(name string) op {
				return do(func() { got = append(got, fmt.Sprintf("%s@%v", name, e.Now())) })
			}
			spawn(e, 0, transfer(l, 100), record("A"))
			spawn(e, tc.at, transfer(l, tc.size), record("B"))
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("completions = %v, want %v", got, tc.want)
			}
			if st := e.Stats(); st.Joins != 1 {
				t.Fatalf("%d join events, want 1 (B's; A's join is virtual)", st.Joins)
			}
			if !almostEqual(l.BusyTime(), e.Now(), 1e-12) {
				t.Fatalf("busy time = %v, want %v (occupied throughout)", l.BusyTime(), e.Now())
			}
		})
	}
}
