package dag

import (
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestRAWDependency(t *testing.T) {
	g := New()
	w := g.Add("writer", Param{Data: g.Datum("x"), Dir: Out})
	r := g.Add("reader", Param{Data: g.Datum("x"), Dir: In})
	if deps := g.Deps(r); len(deps) != 1 || int(deps[0]) != w {
		t.Fatalf("reader deps = %v, want [%d]", deps, w)
	}
	if g.Level(r) != 1 || g.Level(w) != 0 {
		t.Fatalf("levels = %d, %d; want 1, 0", g.Level(r), g.Level(w))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWAWDependency(t *testing.T) {
	g := New()
	w1 := g.Add("w1", Param{Data: g.Datum("x"), Dir: Out})
	w2 := g.Add("w2", Param{Data: g.Datum("x"), Dir: Out})
	if deps := g.Deps(w2); len(deps) != 1 || int(deps[0]) != w1 {
		t.Fatalf("w2 deps = %v, want [%d]", deps, w1)
	}
	r := g.Add("r", Param{Data: g.Datum("x"), Dir: In})
	if deps := g.Deps(r); len(deps) != 1 || int(deps[0]) != w2 {
		t.Fatalf("reader depends on %v, want last writer %d", deps, w2)
	}
}

func TestIndependentReadersParallel(t *testing.T) {
	g := New()
	g.Add("w", Param{Data: g.Datum("x"), Dir: Out})
	for i := 0; i < 4; i++ {
		g.Add("r", Param{Data: g.Datum("x"), Dir: In})
	}
	if got := g.MaxWidth(); got != 4 {
		t.Fatalf("width = %d, want 4 (readers are independent)", got)
	}
	if got := g.MaxHeight(); got != 2 {
		t.Fatalf("height = %d, want 2", got)
	}
}

func TestInOutChain(t *testing.T) {
	// INOUT accumulation serializes: a chain, not a fan-out.
	g := New()
	g.Add("init", Param{Data: g.Datum("acc"), Dir: Out})
	for i := 0; i < 5; i++ {
		g.Add("acc", Param{Data: g.Datum("acc"), Dir: InOut})
	}
	if got := g.MaxHeight(); got != 6 {
		t.Fatalf("height = %d, want 6 (serialized chain)", got)
	}
	if got := g.MaxWidth(); got != 1 {
		t.Fatalf("width = %d, want 1", got)
	}
}

func TestNoWARDependency(t *testing.T) {
	// Versioning semantics: a write after a read does NOT depend on the
	// reader (the reader keeps the old version).
	g := New()
	g.Add("w1", Param{Data: g.Datum("x"), Dir: Out})
	g.Add("r", Param{Data: g.Datum("x"), Dir: In})
	w2 := g.Add("w2", Param{Data: g.Datum("x"), Dir: Out})
	for _, d := range g.Deps(w2) {
		if g.Name(int(d)) == "r" {
			t.Fatal("WAR edge created; versioning should avoid it")
		}
	}
	if g.Version("x") != 2 {
		t.Fatalf("version = %d, want 2", g.Version("x"))
	}
}

func TestDedupEdges(t *testing.T) {
	g := New()
	w := g.Add("w", Param{Data: g.Datum("a"), Dir: Out}, Param{Data: g.Datum("b"), Dir: Out})
	r := g.Add("r", Param{Data: g.Datum("a"), Dir: In}, Param{Data: g.Datum("b"), Dir: In})
	if len(g.Deps(r)) != 1 {
		t.Fatalf("deps = %v, want single deduplicated edge", g.Deps(r))
	}
	if len(g.Succs(w)) != 1 {
		t.Fatalf("succs = %v, want one", g.Succs(w))
	}
}

func TestLevelsPartitionTasks(t *testing.T) {
	g := New()
	g.Add("a", Param{Data: g.Datum("x"), Dir: Out})
	g.Add("b", Param{Data: g.Datum("x"), Dir: In}, Param{Data: g.Datum("y"), Dir: Out})
	g.Add("c", Param{Data: g.Datum("x"), Dir: In})
	g.Add("d", Param{Data: g.Datum("y"), Dir: In})
	total := 0
	for _, lvl := range g.Levels() {
		total += len(lvl)
	}
	if total != g.Len() {
		t.Fatalf("levels cover %d tasks, want %d", total, g.Len())
	}
	if g.Roots()[0] != 0 || len(g.Roots()) != 1 {
		t.Fatalf("roots = %v, want [0]", g.Roots())
	}
}

func TestCountByName(t *testing.T) {
	g := New()
	g.Add("mm", Param{Data: g.Datum("a"), Dir: Out})
	g.Add("mm", Param{Data: g.Datum("b"), Dir: Out})
	g.Add("add", Param{Data: g.Datum("a"), Dir: In}, Param{Data: g.Datum("b"), Dir: In}, Param{Data: g.Datum("c"), Dir: Out})
	counts := g.CountByName()
	if counts["mm"] != 2 || counts["add"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestDOT(t *testing.T) {
	g := New()
	g.Add("mm", Param{Data: g.Datum("a"), Dir: Out})
	g.Add("add", Param{Data: g.Datum("a"), Dir: In})
	var b strings.Builder
	if err := g.DOT(&b, "test"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"digraph", "t0 -> t1", "fillcolor"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestSummary(t *testing.T) {
	g := New()
	g.Add("mm", Param{Data: g.Datum("a"), Dir: Out})
	g.Add("mm", Param{Data: g.Datum("b"), Dir: Out})
	g.Add("add", Param{Data: g.Datum("a"), Dir: In}, Param{Data: g.Datum("b"), Dir: In})
	s := g.Summary()
	if !strings.Contains(s, "L0: 2×mm") || !strings.Contains(s, "L1: 1×add") {
		t.Fatalf("summary = %q", s)
	}
}

// TestRandomDAGInvariants is a property test: graphs built from random
// parameter patterns are acyclic, level-consistent, and width/height bounds
// hold.
func TestRandomDAGInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%100 + 1
		rng := rand.New(rand.NewPCG(seed, 3))
		g := New()
		data := []string{"a", "b", "c", "d", "e", "f"}
		for i := 0; i < n; i++ {
			nparams := rng.IntN(3) + 1
			params := make([]Param, nparams)
			for j := range params {
				params[j] = Param{
					Data: g.Datum(data[rng.IntN(len(data))]),
					Dir:  Direction(rng.IntN(3)),
				}
			}
			g.Add("t", params...)
		}
		if g.Validate() != nil {
			return false
		}
		if g.MaxWidth() > g.Len() || g.MaxHeight() > g.Len() {
			return false
		}
		if g.MaxWidth() < 1 || g.MaxHeight() < 1 {
			return false
		}
		// Every non-root task's level exceeds all of its deps' levels.
		for _, task := range g.Tasks() {
			for _, d := range task.Deps() {
				if g.Level(int(d)) >= task.Level {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectionStrings(t *testing.T) {
	if In.String() != "IN" || Out.String() != "OUT" || InOut.String() != "INOUT" {
		t.Fatal("direction stringers broken")
	}
	p := Param{Dir: InOut}
	if !p.Reads() || !p.Writes() {
		t.Fatal("INOUT must read and write")
	}
	if (Param{Dir: In}).Writes() || (Param{Dir: Out}).Reads() {
		t.Fatal("In/Out direction predicates broken")
	}
}
