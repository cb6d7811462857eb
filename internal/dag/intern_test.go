package dag

import (
	"strings"
	"testing"
)

func TestInternerRangesShareTheNameSpace(t *testing.T) {
	in := NewInterner()
	c0 := in.Intern("C0")
	x := in.Range("X", 3)
	ps := in.Range("ps", 2, 7)
	grid := in.Grid("in#1", 2, 3)
	c1 := in.Intern("C1")

	want := []string{"C0", "X[0]", "X[1]", "X[2]", "ps[7,0]", "ps[7,1]",
		"in#1[0,0]", "in#1[0,1]", "in#1[0,2]", "in#1[1,0]", "in#1[1,1]", "in#1[1,2]", "C1"}
	if in.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", in.Len(), len(want))
	}
	for id, name := range want {
		if got := in.Name(int32(id)); got != name {
			t.Errorf("Name(%d) = %q, want %q", id, got, name)
		}
		if got, ok := in.Lookup(name); !ok || got != int32(id) {
			t.Errorf("Lookup(%q) = %d, %v; want %d", name, got, ok, id)
		}
		// Interning a reserved member's name returns its ID, never a new one.
		if got := in.Intern(name); got != int32(id) {
			t.Errorf("Intern(%q) = %d, want %d", name, got, id)
		}
	}
	if in.Len() != len(want) {
		t.Fatalf("re-interning grew the name space to %d", in.Len())
	}
	if c0 != 0 || x.ID(2) != 3 || ps.ID(1) != 5 || grid.At(1, 2) != 11 || c1 != 12 {
		t.Fatalf("IDs not dense in declaration order")
	}
}

func TestInternerLookupRejectsNonMembers(t *testing.T) {
	in := NewInterner()
	in.Range("X", 3)
	in.Range("ps", 2, 7)
	in.Grid("G", 2, 2)
	for _, name := range []string{
		"X[3]", "X[-1]", "X[01]", "X[+1]", "X[1,0]", "X[]", "X[1", "X1",
		"ps[7]", "ps[8,0]", "ps[7,2]", "ps[7, 1]", "G[0,2]", "G[2,0]", "G[1]",
		"Y[0]", "[0]",
	} {
		if id, ok := in.Lookup(name); ok {
			t.Errorf("Lookup(%q) = %d, want no datum", name, id)
		}
	}
	// A non-member spelling interns as a fresh named datum.
	if id := in.Intern("X[3]"); id != int32(in.Len()-1) {
		t.Fatalf("Intern(X[3]) = %d, want fresh ID %d", id, in.Len()-1)
	}
}

func TestInternerRangeOverNamedDatumPanics(t *testing.T) {
	in := NewInterner()
	in.Intern("X[5]") // same prefix, outside the family: allowed
	in.Range("X", 3)
	in.Intern("ps[1,2]")
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), `"ps[1,2]"`) {
			t.Fatalf("recover() = %v, want a panic naming ps[1,2]", r)
		}
	}()
	in.Range("ps", 4, 1)
}

func TestRangeIndexOutOfBoundsPanics(t *testing.T) {
	r := NewInterner().Range("X", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Range.ID past the end did not panic")
		}
	}()
	r.ID(2)
}

func TestAddRejectsUnassignedDatum(t *testing.T) {
	g := New()
	g.Datum("x")
	defer func() {
		if recover() == nil {
			t.Fatal("Add with an unassigned datum ID did not panic")
		}
	}()
	g.Add("t", Param{Data: 1, Dir: In})
}

func TestIndexedName(t *testing.T) {
	for _, c := range []struct {
		got, want string
	}{
		{IndexedName("X", 4), "X[4]"},
		{IndexedName("ps", 12, 0), "ps[12,0]"},
		{IndexedName("P", 1, -2, 3), "P[1,-2,3]"},
	} {
		if c.got != c.want {
			t.Errorf("IndexedName = %q, want %q", c.got, c.want)
		}
	}
}
