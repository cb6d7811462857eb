package runtime

import (
	"fmt"
	"testing"

	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
)

// TestInputPoolRecycles checks that a returned input list is handed out
// again for the next borrow of its length, and that other lengths carve
// fresh storage.
func TestInputPoolRecycles(t *testing.T) {
	var p inputPool
	a, b := p.borrow(3), p.borrow(3)
	if cap(a) != 3 || len(a) != 0 || cap(b) != 3 {
		t.Fatalf("borrow(3): len %d cap %d, cap %d", len(a), cap(a), cap(b))
	}
	a = append(a, sched.DataLoc{ID: 1}, sched.DataLoc{ID: 2}, sched.DataLoc{ID: 3})
	b = append(b, sched.DataLoc{ID: 4}, sched.DataLoc{ID: 5}, sched.DataLoc{ID: 6})
	if &a[0] == &b[0] {
		t.Fatal("two live lists share storage")
	}
	p.give(a)
	p.give(nil) // a task with no reads borrows nothing and gives nothing
	c := p.borrow(3)
	if len(c) != 0 || &c[:1][0] != &a[0] {
		t.Fatal("borrow(3) did not reuse the returned list")
	}
	if d := p.borrow(2); &d[:1][0] == &a[0] || &d[:1][0] == &b[0] {
		t.Fatal("borrow(2) reused a list of another length")
	}
	if b[0].ID != 4 {
		t.Fatalf("live list overwritten: %v", b)
	}
}

// layeredWorkflow builds width independent chains of depth tasks; task
// (l, j) reads chain j's datum from layer l-1 and writes its own.
func layeredWorkflow(width, depth int) *Workflow {
	wf := NewWorkflow("layered")
	for l := 0; l <= depth; l++ {
		for j := 0; j < width; j++ {
			wf.SetSize(fmt.Sprintf("d%d_%d", l, j), 1e6)
		}
	}
	for l := 1; l <= depth; l++ {
		for j := 0; j < width; j++ {
			wf.AddTask("step", TaskSpec{Profile: testProf},
				dag.Param{Data: wf.Datum(fmt.Sprintf("d%d_%d", l-1, j)), Dir: dag.In},
				dag.Param{Data: wf.Datum(fmt.Sprintf("d%d_%d", l, j)), Dir: dag.Out})
		}
	}
	return wf
}

// TestArenaInputListsTrackLiveTasks pins the input pool's footprint: a
// run keeps at most one list per ready or running task, not one per read,
// so a deep workflow pools no more lists than its width, and a second run
// on the same arena borrows every list from the pool.
func TestArenaInputListsTrackLiveTasks(t *testing.T) {
	const width, depth = 16, 40
	var arena Arena
	pooled := func() (lists, carved int) {
		for _, f := range arena.inputs.free {
			lists += len(f)
		}
		return lists, len(arena.inputs.slab)
	}
	cfg := SimConfig{Device: costmodel.CPU, Storage: storage.Local, Policy: sched.Locality, Arena: &arena}
	first, err := RunSim(layeredWorkflow(width, depth), cfg)
	if err != nil {
		t.Fatal(err)
	}
	lists, carved := pooled()
	if lists < 1 || lists > width {
		t.Fatalf("pool holds %d lists after a run of width %d (%d reads)", lists, width, width*depth)
	}
	second, err := RunSim(layeredWorkflow(width, depth), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Makespan != first.Makespan {
		t.Fatalf("makespan %v on a reused arena, %v on a fresh one", second.Makespan, first.Makespan)
	}
	if l, c := pooled(); l != lists || c != carved {
		t.Fatalf("second run grew the pool: %d lists / %d carved entries, first run %d / %d", l, c, lists, carved)
	}
}
