package sim

import (
	"math/rand/v2"
	"testing"
)

// TestArenaReuse round-trips an arena across engines and checks the
// second run executes correctly on recycled storage and that steady-state
// trials stop allocating node slabs.
func TestArenaReuse(t *testing.T) {
	var a Arena

	runOne := func(n int) {
		e := NewIn(&a)
		rng := rand.New(rand.NewPCG(5, uint64(n)))
		fired := 0
		last := -1.0
		for i := 0; i < n; i++ {
			e.Schedule(rng.Float64()*100, func() {
				if e.Now() < last {
					t.Errorf("out of order: %v after %v", e.Now(), last)
				}
				last = e.Now()
				fired++
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if fired != n {
			t.Errorf("fired %d of %d events", fired, n)
		}
		e.Release(&a)
	}

	runOne(2000)
	if len(a.slabs) == 0 {
		t.Fatal("release retained no slabs")
	}
	if cap(a.heap) == 0 {
		t.Fatal("release retained no heap backing array")
	}
	slabs := len(a.slabs)
	runOne(2000) // same size: must need no new slab chunks
	if len(a.slabs) != slabs {
		t.Fatalf("second run grew slab count %d -> %d despite arena reuse", slabs, len(a.slabs))
	}
	runOne(500)
}
