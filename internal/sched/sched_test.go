package sched

import (
	"testing"

	"wfsim/internal/costmodel"
)

func view(load ...int) *View {
	return &View{
		NumNodes: len(load),
		Load:     load,
		Locate:   func(int32) (int, bool) { return -1, false },
	}
}

func TestQueueDisciplines(t *testing.T) {
	q := &Queue{}
	for i := 0; i < 3; i++ {
		q.Push(TaskRef{ID: i})
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
	front, _ := q.PopFront()
	back, _ := q.PopBackTenant(0)
	if front.ID != 0 || back.ID != 2 {
		t.Fatalf("front=%d back=%d", front.ID, back.ID)
	}
	q.PopFront()
	if _, ok := q.PopFront(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	if _, ok := q.PopBackTenant(0); ok {
		t.Fatal("pop back from empty queue succeeded")
	}
}

func TestFIFOOrder(t *testing.T) {
	s, err := New(FIFO, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := &Queue{}
	q.Push(TaskRef{ID: 7})
	q.Push(TaskRef{ID: 8})
	first, _ := s.Next(q, 0)
	if first.ID != 7 {
		t.Fatalf("FIFO dispatched %d first", first.ID)
	}
	// Least-loaded placement.
	if n := s.Place(TaskRef{}, view(3, 1, 2)); n != 1 {
		t.Fatalf("placed on %d, want least-loaded 1", n)
	}
	// Deterministic tie-break: lowest node.
	if n := s.Place(TaskRef{}, view(2, 2, 2)); n != 0 {
		t.Fatalf("tie placed on %d, want 0", n)
	}
}

func TestLIFOOrder(t *testing.T) {
	s, _ := New(LIFO, 0)
	q := &Queue{}
	q.Push(TaskRef{ID: 1})
	q.Push(TaskRef{ID: 2})
	first, _ := s.Next(q, 0)
	if first.ID != 2 {
		t.Fatalf("LIFO dispatched %d first", first.ID)
	}
}

func TestLocalityPlacement(t *testing.T) {
	s, _ := New(Locality, 0)
	locs := map[int32]int{0: 2, 1: 2, 2: 0}
	v := &View{
		NumNodes: 4,
		Load:     []int{0, 0, 0, 0},
		Locate: func(id int32) (int, bool) {
			n, ok := locs[id]
			return n, ok
		},
	}
	task := TaskRef{Inputs: []DataLoc{
		{ID: 0, Bytes: 100}, {ID: 1, Bytes: 100}, {ID: 2, Bytes: 150},
	}}
	// Node 2 holds 200 bytes vs node 0's 150.
	if n := s.Place(task, v); n != 2 {
		t.Fatalf("placed on %d, want data-richest node 2", n)
	}
	// Heavy load on the data-rich node shifts the decision.
	v.Load = []int{0, 0, 9, 0}
	if n := s.Place(task, v); n != 0 {
		t.Fatalf("placed on %d, want node 0 once node 2 is loaded", n)
	}
	// No located inputs: least-loaded fallback.
	vShared := view(5, 0, 3, 1)
	if n := s.Place(task, vShared); n != 1 {
		t.Fatalf("fallback placed on %d, want 1", n)
	}
}

func TestOverheads(t *testing.T) {
	p := costmodel.DefaultParams()
	fifo, _ := New(FIFO, 0)
	loc, _ := New(Locality, 0)
	if fifo.Overhead(&p, 0, 4) >= loc.Overhead(&p, 0, 4) {
		t.Fatal("locality decisions must cost more than generation-order (§3.2)")
	}
}

// TestOverheadConstantsDistinct is the regression test for the
// constant-aliasing bug: LIFO and Random both returned p.SchedFIFO, so
// three policies silently shared one overhead constant. No two policies
// may produce the same per-decision cost at default params.
func TestOverheadConstantsDistinct(t *testing.T) {
	p := costmodel.DefaultParams()
	type oh struct {
		pol Policy
		v   float64
	}
	var all []oh
	for _, pol := range Policies() {
		s, err := New(pol, 0)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, oh{pol, s.Overhead(&p, 0, 0)})
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if all[i].v == all[j].v {
				t.Errorf("policies %v and %v share overhead constant %v",
					all[i].pol, all[j].pol, all[i].v)
			}
		}
	}
}

// TestOverheadModel pins the shape of the per-decision cost model: the
// scale knob multiplies every policy linearly (0 = free scheduler), the
// lookahead policies grow with queue depth, and HEFT/min-min — but not
// b-level, whose placement is the cheap least-loaded scan — grow with
// cluster size.
func TestOverheadModel(t *testing.T) {
	p := costmodel.DefaultParams()
	for _, pol := range Policies() {
		s, _ := New(pol, 0)
		base := s.Overhead(&p, 16, 8)
		if base <= 0 {
			t.Errorf("%v overhead = %v, want positive", pol, base)
		}
		pz := p
		pz.SchedOverheadScale = 0
		if got := s.Overhead(&pz, 16, 8); got != 0 {
			t.Errorf("%v overhead at scale 0 = %v, want 0", pol, got)
		}
		p2 := p
		p2.SchedOverheadScale = 2
		if got := s.Overhead(&p2, 16, 8); got != 2*base {
			t.Errorf("%v overhead at scale 2 = %v, want %v", pol, got, 2*base)
		}
	}
	for _, pol := range []Policy{HEFT, BLevel, MinMin} {
		s, _ := New(pol, 0)
		if s.Overhead(&p, 64, 4) <= s.Overhead(&p, 4, 4) {
			t.Errorf("%v overhead must grow with ready-queue depth", pol)
		}
	}
	for _, pol := range []Policy{HEFT, MinMin} {
		s, _ := New(pol, 0)
		if s.Overhead(&p, 4, 64) <= s.Overhead(&p, 4, 4) {
			t.Errorf("%v overhead must grow with cluster size", pol)
		}
	}
	bl, _ := New(BLevel, 0)
	if bl.Overhead(&p, 4, 64) != bl.Overhead(&p, 4, 4) {
		t.Error("b-level pays no per-node placement scan")
	}
	// The legacy policies are pure base constants at default scale —
	// FIFO's 0.35 ms and Locality's 1.6 ms are golden-pinned through the
	// trace fixtures and must not pick up queue- or cluster-dependence.
	for _, pol := range []Policy{FIFO, Locality, LIFO, Random, WorkSteal} {
		s, _ := New(pol, 0)
		if s.Overhead(&p, 64, 64) != s.Overhead(&p, 0, 0) {
			t.Errorf("%v overhead must not depend on queue depth or cluster size", pol)
		}
	}
}

func TestRandomSeededDeterministic(t *testing.T) {
	run := func() []int {
		s, _ := New(Random, 99)
		var out []int
		for i := 0; i < 16; i++ {
			out = append(out, s.Place(TaskRef{}, view(0, 0, 0, 0)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("seeded random scheduler is nondeterministic")
		}
		if a[i] < 0 || a[i] > 3 {
			t.Fatalf("placement %d out of range", a[i])
		}
	}
}

func TestNewUnknownPolicy(t *testing.T) {
	if _, err := New(Policy(42), 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestPolicyStrings pins both naming surfaces: String returns the stable
// lowercase token used by CLI flags, HTTP requests and documentation
// (append-only — renaming one breaks external references), Describe the
// report display name (the paper's phrasing for the COMPSs policies).
func TestPolicyStrings(t *testing.T) {
	tokens := map[Policy]string{
		FIFO: "fifo", Locality: "locality", LIFO: "lifo", Random: "random",
		HEFT: "heft", BLevel: "blevel", MinMin: "minmin", WorkSteal: "worksteal",
	}
	describe := map[Policy]string{
		FIFO: "task generation order", Locality: "data locality",
		LIFO: "lifo", Random: "random",
		HEFT: "heft", BLevel: "b-level", MinMin: "min-min", WorkSteal: "work stealing",
	}
	if len(Policies()) != len(tokens) {
		t.Fatalf("Policies() lists %d policies, tokens table has %d", len(Policies()), len(tokens))
	}
	for p, s := range tokens {
		if p.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
		got, err := ParsePolicy(s)
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = (%v, %v), want %v", s, got, err, p)
		}
	}
	for p, s := range describe {
		if p.Describe() != s {
			t.Fatalf("%d.Describe() = %q, want %q", int(p), p.Describe(), s)
		}
	}
	if _, err := ParsePolicy("task generation order"); err == nil {
		t.Fatal("ParsePolicy accepted a display name; only stable tokens parse")
	}
	for _, p := range Policies() {
		s, err := New(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s.Policy() != p {
			t.Fatalf("Policy() = %v, want %v", s.Policy(), p)
		}
	}
}

// TestLocalityZeroByteInputsSingleTouch is the regression test for two
// zero-byte-input bugs. First, the duplicate-scratch bug: membership in
// the touched list was keyed on the byte tally (byNode[n] == 0), which
// stays true for zero-byte inputs — legal per Workflow — so the same node
// was appended once per such input. Second, the discarded-affinity bug: a
// zero-byte resident input scores 0, which never beat the bestScore := 0
// sentinel, so known node affinity fell through to the global
// least-loaded scan as if the inputs had no location at all.
func TestLocalityZeroByteInputsSingleTouch(t *testing.T) {
	s, _ := New(Locality, 0)
	l := s.(*localitySched)
	v := &View{
		NumNodes: 4,
		Load:     []int{9, 0, 0, 0},
		Locate:   func(id int32) (int, bool) { return 0, true },
	}
	inputs := make([]DataLoc, 256) // zero-byte blocks, all located on node 0
	for i := range inputs {
		inputs[i] = DataLoc{ID: int32(i)}
	}
	// Every resident input is zero-byte, but the affinity is real: the
	// task goes to the (only) touched node, load notwithstanding — not to
	// the globally least-loaded node 1.
	if got := l.Place(TaskRef{Inputs: inputs}, v); got != 0 {
		t.Errorf("Place = %d, want node 0 holding the zero-byte inputs", got)
	}
	if c := cap(l.res.touched); c > v.NumNodes {
		t.Errorf("touched scratch grew to %d entries for %d nodes — duplicate entries per zero-byte input", c, v.NumNodes)
	}
	// Among several zero-byte-touched nodes, the least loaded wins,
	// lowest ID on ties.
	v.Locate = func(id int32) (int, bool) { return int(id) % 3, true }
	v.Load = []int{4, 2, 2, 0}
	if got := l.Place(TaskRef{Inputs: inputs}, v); got != 1 {
		t.Errorf("Place = %d, want least-loaded touched node 1", got)
	}
	// Zero-byte inputs must not drown out a real locality signal either.
	inputs = append(inputs, DataLoc{ID: 999, Bytes: 100})
	locs := func(id int32) (int, bool) {
		if id == 999 {
			return 2, true
		}
		return 0, true
	}
	v.Locate = locs
	v.Load = []int{9, 0, 0, 0}
	if got := l.Place(TaskRef{Inputs: inputs}, v); got != 2 {
		t.Errorf("Place = %d, want node 2 holding the only real bytes", got)
	}
}

// TestLocalityClusterResize drives one scheduler across views of
// different sizes, the mid-session cluster-resize case: the scratch must
// follow the view's node count in both directions (the old grow-only
// check kept stale capacity assumptions forever), and locations recorded
// under a larger cluster must be ignored, not crash placement.
func TestLocalityClusterResize(t *testing.T) {
	s, _ := New(Locality, 0)
	l := s.(*localitySched)
	task := TaskRef{Inputs: []DataLoc{{ID: 5, Bytes: 100}}}
	cases := []struct {
		name  string
		nodes int
		home  int // Locate result for every ID
		load  []int
		want  int
	}{
		{"initial", 4, 3, []int{0, 0, 0, 0}, 3},
		{"shrink", 2, 1, []int{0, 0}, 1},
		{"stale location beyond cluster", 2, 3, []int{1, 0}, 1}, // affinity dropped: least-loaded
		{"regrow within capacity", 4, 2, []int{0, 0, 0, 0}, 2},
		{"grow past capacity", 8, 7, make([]int, 8), 7},
	}
	for _, tc := range cases {
		v := &View{
			NumNodes: tc.nodes,
			Load:     tc.load,
			Locate:   func(int32) (int, bool) { return tc.home, true },
		}
		if got := l.Place(task, v); got != tc.want {
			t.Errorf("%s: Place = %d, want %d", tc.name, got, tc.want)
		}
		if len(l.res.byNode) != tc.nodes {
			t.Errorf("%s: scratch sized %d for %d nodes", tc.name, len(l.res.byNode), tc.nodes)
		}
	}
}

// TestPlacementSkipsDownNodes covers the fault-injection view: no policy
// may target a down node, and placement reports -1 when the whole cluster
// is down.
func TestPlacementSkipsDownNodes(t *testing.T) {
	up := []bool{false, true, false, true}
	v := &View{NumNodes: 4, Load: []int{0, 5, 0, 1}, Up: up,
		Locate: func(int32) (int, bool) { return -1, false }}
	for _, pol := range []Policy{FIFO, LIFO} {
		s, _ := New(pol, 0)
		if n := s.Place(TaskRef{}, v); n != 3 {
			t.Errorf("%v placed on %d, want least-loaded up node 3", pol, n)
		}
	}
	rnd, _ := New(Random, 42)
	for i := 0; i < 50; i++ {
		if n := rnd.Place(TaskRef{}, v); !up[n] {
			t.Fatalf("random placement chose down node %d", n)
		}
	}
	// Locality must ignore data resident on a down node.
	loc, _ := New(Locality, 0)
	vLoc := &View{NumNodes: 4, Load: []int{0, 5, 0, 1}, Up: up,
		Locate: func(int32) (int, bool) { return 0, true }}
	if n := loc.Place(TaskRef{Inputs: []DataLoc{{ID: 1, Bytes: 100}}}, vLoc); n != 3 {
		t.Errorf("locality placed on %d, want 3 (data owner is down)", n)
	}
	// The lookahead policies' EFT scan must likewise skip down nodes.
	for _, pol := range []Policy{HEFT, MinMin, BLevel, WorkSteal} {
		s, _ := New(pol, 0)
		if n := s.Place(TaskRef{Cost: 1}, v); n != 3 {
			t.Errorf("%v placed on %d, want up node 3", pol, n)
		}
	}
	// Whole cluster down: every policy reports -1.
	allDown := &View{NumNodes: 2, Load: []int{0, 0}, Up: []bool{false, false},
		Locate: func(int32) (int, bool) { return -1, false }}
	for _, pol := range Policies() {
		s, _ := New(pol, 0)
		if n := s.Place(TaskRef{}, allDown); n != -1 {
			t.Errorf("%v placed on %d with every node down, want -1", pol, n)
		}
	}
}

// TestQueueWraparound drives the ring buffer through repeated grow /
// wrap cycles under mixed Push, PopFront and PopBackTenant (always for the
// newest ref's tenant, so it pops the newest ref), checking the queue
// against a reference slice after every operation.
func TestQueueWraparound(t *testing.T) {
	q := &Queue{}
	var ref []TaskRef // reference model: plain slice, front at index 0
	next := 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			tr := TaskRef{ID: next, Tenant: int32(next % 3)}
			next++
			q.Push(tr)
			ref = append(ref, tr)
		}
	}
	popFront := func(n int) {
		for i := 0; i < n; i++ {
			got, ok := q.PopFront()
			if !ok {
				t.Fatalf("PopFront failed with %d refs modeled", len(ref))
			}
			if got.ID != ref[0].ID {
				t.Fatalf("PopFront = %d, want %d", got.ID, ref[0].ID)
			}
			ref = ref[1:]
		}
	}
	popBack := func(n int) {
		for i := 0; i < n; i++ {
			got, ok := q.PopBackTenant(ref[len(ref)-1].Tenant)
			if !ok {
				t.Fatalf("PopBackTenant failed with %d refs modeled", len(ref))
			}
			if got.ID != ref[len(ref)-1].ID {
				t.Fatalf("PopBackTenant = %d, want %d", got.ID, ref[len(ref)-1].ID)
			}
			ref = ref[:len(ref)-1]
		}
	}
	check := func() {
		t.Helper()
		if q.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", q.Len(), len(ref))
		}
		if len(ref) > 0 {
			if got, ok := q.Peek(); !ok || got.ID != ref[0].ID {
				t.Fatalf("Peek = (%d,%v), want %d", got.ID, ok, ref[0].ID)
			}
		} else if _, ok := q.Peek(); ok {
			t.Fatal("Peek on empty queue succeeded")
		}
		want := map[int32]int{}
		for _, r := range ref {
			want[r.Tenant]++
		}
		for ten := int32(0); ten < 3; ten++ {
			if got := q.TenantLen(ten); got != want[ten] {
				t.Fatalf("TenantLen(%d) = %d, want %d", ten, got, want[ten])
			}
		}
	}
	// Cross the grow boundary, drain low, refill past the old head so the
	// live window wraps around the end of the backing array, repeatedly.
	script := []struct {
		op string
		n  int
	}{
		{"push", 5}, {"popF", 3}, {"push", 6}, {"popB", 2}, {"popF", 4},
		{"push", 12}, {"popF", 7}, {"popB", 3}, {"push", 9}, {"popF", 5},
		{"popB", 6}, {"push", 2}, {"popF", 4}, {"push", 30}, {"popB", 15},
		{"popF", 15},
	}
	for _, s := range script {
		switch s.op {
		case "push":
			push(s.n)
		case "popF":
			popFront(s.n)
		case "popB":
			popBack(s.n)
		}
		check()
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
}

// TestQueueTenantPops pins the per-tenant disciplines: PopFrontTenant and
// PopBackTenant select within one tenant's refs while preserving the
// relative order of everything else.
func TestQueueTenantPops(t *testing.T) {
	q := &Queue{}
	// Interleave tenants 0/1: IDs 0..7, tenant = ID % 2.
	for i := 0; i < 8; i++ {
		q.Push(TaskRef{ID: i, Tenant: int32(i % 2)})
	}
	if got, ok := q.PopFrontTenant(1); !ok || got.ID != 1 {
		t.Fatalf("PopFrontTenant(1) = (%d,%v), want 1", got.ID, ok)
	}
	if got, ok := q.PopBackTenant(1); !ok || got.ID != 7 {
		t.Fatalf("PopBackTenant(1) = (%d,%v), want 7", got.ID, ok)
	}
	if q.TenantLen(0) != 4 || q.TenantLen(1) != 2 {
		t.Fatalf("tenant lens = %d,%d, want 4,2", q.TenantLen(0), q.TenantLen(1))
	}
	// Remaining refs keep their relative order: 0,2,3,4,5,6.
	want := []int{0, 2, 3, 4, 5, 6}
	for _, w := range want {
		got, ok := q.PopFront()
		if !ok || got.ID != w {
			t.Fatalf("PopFront = (%d,%v), want %d", got.ID, ok, w)
		}
	}
	// Absent tenant: clean miss, including tenants never pushed.
	if _, ok := q.PopFrontTenant(0); ok {
		t.Fatal("PopFrontTenant on empty queue succeeded")
	}
	if _, ok := q.PopBackTenant(42); ok {
		t.Fatal("PopBackTenant for unknown tenant succeeded")
	}
	if q.TenantLen(42) != 0 {
		t.Fatal("TenantLen for unknown tenant nonzero")
	}
}

// TestSchedulerNext pins the per-tenant discipline each policy applies
// through the one Next the fair-share gate calls: FIFO, Locality, Random
// and unbound work stealing take the tenant's oldest ref, LIFO its
// newest, HEFT and b-level its highest rank, min-min its lowest cost.
// Tenant 0's refs outrank and undercut tenant 1's, so a discipline that
// looked past the tenant would pick one of them.
func TestSchedulerNext(t *testing.T) {
	rank := []float64{9, 2, 8, 7, 6, 3}
	cost := []float64{0, 1, 0, 6, 0, 4}
	fill := func() *Queue {
		q := &Queue{}
		for i := 0; i < 6; i++ {
			q.Push(TaskRef{ID: i, Tenant: int32(i % 2), Rank: rank[i], Cost: cost[i]})
		}
		return q
	}
	want := map[Policy]int{
		FIFO: 1, Locality: 1, Random: 1, WorkSteal: 1,
		LIFO: 5, HEFT: 3, BLevel: 3, MinMin: 1,
	}
	for _, pol := range Policies() {
		s, _ := New(pol, 1)
		q := fill()
		if got, ok := s.Next(q, 1); !ok || got.ID != want[pol] {
			t.Errorf("%v Next(1) = (%d,%v), want %d", pol, got.ID, ok, want[pol])
		}
		if q.TenantLen(0) != 3 || q.TenantLen(1) != 2 {
			t.Errorf("%v: tenant lens = %d,%d after one pop, want 3,2", pol, q.TenantLen(0), q.TenantLen(1))
		}
		if _, ok := s.Next(q, 3); ok {
			t.Errorf("%v: Next for an absent tenant succeeded", pol)
		}
	}
	// Bound work stealing: the thief (node 0) pops the newest of the
	// tenant's refs homed on it, skipping a newer one of another tenant.
	s, _ := New(WorkSteal, 0)
	s.(ViewBinder).BindView(&View{
		NumNodes: 2, Load: []int{0, 1},
		Locate: func(id int32) (int, bool) { return int(id), true },
	})
	q := &Queue{}
	q.Push(TaskRef{ID: 0, Tenant: 1, Inputs: []DataLoc{{ID: 0, Bytes: 1}}})
	q.Push(TaskRef{ID: 1, Tenant: 1, Inputs: []DataLoc{{ID: 1, Bytes: 1}}})
	q.Push(TaskRef{ID: 2, Tenant: 0, Inputs: []DataLoc{{ID: 0, Bytes: 1}}})
	if got, ok := s.Next(q, 1); !ok || got.ID != 0 {
		t.Errorf("bound WorkSteal Next(1) = (%d,%v), want 0", got.ID, ok)
	}
}

// TestLookaheadDisciplines pins the queue orders of the lookahead
// policies: HEFT and b-level pop the highest precomputed Rank, min-min
// the lowest Cost, and all three resolve ties toward the oldest ref so
// equal-priority work keeps generation order.
func TestLookaheadDisciplines(t *testing.T) {
	fill := func() *Queue {
		q := &Queue{}
		q.Push(TaskRef{ID: 0, Rank: 5, Cost: 3})
		q.Push(TaskRef{ID: 1, Rank: 9, Cost: 2})
		q.Push(TaskRef{ID: 2, Rank: 9, Cost: 1})
		q.Push(TaskRef{ID: 3, Rank: 1, Cost: 1})
		return q
	}
	for _, pol := range []Policy{HEFT, BLevel} {
		s, _ := New(pol, 0)
		q := fill()
		want := []int{1, 2, 0, 3} // rank desc, oldest wins the 9-9 tie
		for _, w := range want {
			got, ok := s.Next(q, 0)
			if !ok || got.ID != w {
				t.Fatalf("%v popped %d, want %d", pol, got.ID, w)
			}
		}
	}
	mm, _ := New(MinMin, 0)
	q := fill()
	want := []int{2, 3, 1, 0} // cost asc, oldest wins the 1-1 tie
	for _, w := range want {
		got, ok := mm.Next(q, 0)
		if !ok || got.ID != w {
			t.Fatalf("min-min popped %d, want %d", got.ID, w)
		}
	}
	// Tenant-restricted pops apply the same discipline within the tenant.
	q = &Queue{}
	q.Push(TaskRef{ID: 0, Tenant: 0, Rank: 99, Cost: 0})
	q.Push(TaskRef{ID: 1, Tenant: 1, Rank: 2, Cost: 9})
	q.Push(TaskRef{ID: 2, Tenant: 1, Rank: 7, Cost: 4})
	h, _ := New(HEFT, 0)
	if got, ok := h.Next(q, 1); !ok || got.ID != 2 {
		t.Fatalf("HEFT Next(1) = %d, want 2", got.ID)
	}
	if _, ok := h.Next(q, 3); ok {
		t.Fatal("Next for absent tenant succeeded")
	}
}

// TestEFTPlacement pins the earliest-finish-time estimate: node speed
// outweighs raw load when the speed gap is large enough, resident input
// bytes discount a candidate's transfer term, and ties break to the
// lowest node ID.
func TestEFTPlacement(t *testing.T) {
	h, _ := New(HEFT, 0)
	// Heterogeneous speeds: node 0 is nominal, node 1 four times slower.
	// Equal load, so the fast node finishes first.
	v := &View{
		NumNodes: 2, Load: []int{1, 1},
		Speed:  []float64{1.0, 0.25},
		Locate: func(int32) (int, bool) { return -1, false },
	}
	if n := h.Place(TaskRef{Cost: 10}, v); n != 0 {
		t.Errorf("EFT placed on %d, want fast node 0", n)
	}
	// The fast node absorbs proportionally more load before the slow one
	// wins: at 4x the queue it is still no worse.
	v.Load = []int{7, 1}
	if n := h.Place(TaskRef{Cost: 10}, v); n != 0 {
		t.Errorf("EFT placed on %d, want fast node 0 at 4x queue", n)
	}
	v.Load = []int{9, 1}
	if n := h.Place(TaskRef{Cost: 10}, v); n != 1 {
		t.Errorf("EFT placed on %d, want slow node 1 once the fast queue exceeds the speed ratio", n)
	}
	// Resident bytes discount the transfer term.
	vd := &View{
		NumNodes: 2, Load: []int{0, 0}, XferRate: 100,
		Locate: func(id int32) (int, bool) { return 1, true },
	}
	if n := h.Place(TaskRef{Cost: 1, Inputs: []DataLoc{{ID: 0, Bytes: 1000}}}, vd); n != 1 {
		t.Errorf("EFT placed on %d, want data-holding node 1", n)
	}
	// Homogeneous, equal load, no data: lowest node ID.
	if n := h.Place(TaskRef{Cost: 1}, view(2, 2, 2)); n != 0 {
		t.Errorf("EFT tie placed on %d, want 0", n)
	}
	// min-min shares the placement; b-level stays least-loaded.
	mm, _ := New(MinMin, 0)
	if n := mm.Place(TaskRef{Cost: 10}, &View{NumNodes: 2, Load: []int{1, 1},
		Speed:  []float64{1.0, 0.25},
		Locate: func(int32) (int, bool) { return -1, false }}); n != 0 {
		t.Errorf("min-min placed on %d, want fast node 0", n)
	}
	bl, _ := New(BLevel, 0)
	if n := bl.Place(TaskRef{Cost: 10}, view(3, 1, 2)); n != 1 {
		t.Errorf("b-level placed on %d, want least-loaded 1", n)
	}
}

// TestWorkStealing pins the deque model: the least-loaded node is the
// thief; it pops the newest ready task homed on it (owner-side LIFO), or
// steals the oldest ready task when nothing is homed on it (thief-side
// FIFO), and Place dispatches to the thief chosen at Next.
func TestWorkStealing(t *testing.T) {
	s, _ := New(WorkSteal, 0)
	ws := s.(*workStealSched)
	home := map[int32]int{10: 0, 11: 0, 20: 1}
	v := &View{
		NumNodes: 2, Load: []int{0, 3},
		Locate: func(id int32) (int, bool) {
			n, ok := home[id]
			return n, ok
		},
	}
	ws.BindView(v)
	q := &Queue{}
	q.Push(TaskRef{ID: 1, Inputs: []DataLoc{{ID: 10, Bytes: 5}}}) // home 0
	q.Push(TaskRef{ID: 2, Inputs: []DataLoc{{ID: 20, Bytes: 5}}}) // home 1
	q.Push(TaskRef{ID: 3, Inputs: []DataLoc{{ID: 11, Bytes: 5}}}) // home 0

	// Thief is node 0 (load 0): pops its newest homed ref — ID 3, not 1.
	got, ok := s.Next(q, 0)
	if !ok || got.ID != 3 {
		t.Fatalf("Next = %d, want newest owned ref 3", got.ID)
	}
	if n := s.Place(got, v); n != 0 {
		t.Fatalf("Place = %d, want thief node 0", n)
	}
	// Then its older homed ref.
	got, _ = s.Next(q, 0)
	if got.ID != 1 {
		t.Fatalf("Next = %d, want remaining owned ref 1", got.ID)
	}
	if n := s.Place(got, v); n != 0 {
		t.Fatalf("Place = %d, want thief node 0", n)
	}
	// Deque empty: node 0 steals the oldest ready ref even though it is
	// homed on node 1.
	got, _ = s.Next(q, 0)
	if got.ID != 2 {
		t.Fatalf("Next = %d, want stolen ref 2", got.ID)
	}
	if n := s.Place(got, v); n != 0 {
		t.Fatalf("Place = %d, want stealing node 0", n)
	}
	// Unbound (no view): degrades to FIFO order with least-loaded
	// placement, so direct queue use stays sane.
	s2, _ := New(WorkSteal, 0)
	q2 := &Queue{}
	q2.Push(TaskRef{ID: 7})
	q2.Push(TaskRef{ID: 8})
	if got, _ := s2.Next(q2, 0); got.ID != 7 {
		t.Fatalf("unbound Next = %d, want FIFO 7", got.ID)
	}
	if n := s2.Place(TaskRef{}, view(2, 0)); n != 1 {
		t.Fatalf("unbound Place = %d, want least-loaded 1", n)
	}
	// Refs with no located inputs home by stable ID hash.
	vh := &View{NumNodes: 4, Load: []int{0, 0, 0, 0},
		Locate: func(int32) (int, bool) { return -1, false }}
	if h := refHome(TaskRef{ID: 6}, vh); h != 2 {
		t.Fatalf("refHome = %d, want 6 %% 4 = 2", h)
	}
}

// TestTaskRefCarriesEnqueueInstant pins that queue disciplines preserve
// each ref's own enqueue timestamp through reordering (the LIFO
// attribution fix; the end-to-end check lives in the runtime tests).
func TestTaskRefCarriesEnqueueInstant(t *testing.T) {
	q := &Queue{}
	for i := 0; i < 4; i++ {
		q.Push(TaskRef{ID: i, Enqueued: float64(i) * 1.5})
	}
	lifo, _ := New(LIFO, 0)
	for want := 3; want >= 0; want-- {
		ref, ok := lifo.Next(q, 0)
		if !ok || ref.ID != want || ref.Enqueued != float64(want)*1.5 {
			t.Fatalf("LIFO popped %+v, want ID %d with Enqueued %v", ref, want, float64(want)*1.5)
		}
	}
}
