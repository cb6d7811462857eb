package tables

import (
	"math"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := New("Title", "col", "longer column")
	tb.AddRow("a", "b")
	tb.AddRow("longer cell", "c")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title" {
		t.Fatalf("missing title: %q", lines[0])
	}
	// Header, separator, two rows.
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5", len(lines))
	}
	if !strings.Contains(lines[2], "---") {
		t.Fatal("missing separator")
	}
	// All data lines padded to equal width for the first column.
	if !strings.HasPrefix(lines[3], "a          ") {
		t.Fatalf("misaligned row: %q", lines[3])
	}
}

func TestTableExtraCells(t *testing.T) {
	tb := New("", "a")
	tb.AddRow("x", "overflow")
	if !strings.Contains(tb.String(), "overflow") {
		t.Fatal("overflow cell dropped")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:          "0",
		12345:      "12345",
		42.5:       "42.5",
		3.14159:    "3.142",
		0.00042:    "4.20e-04",
		math.NaN(): "-",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatSpeedup(t *testing.T) {
	// The paper's convention: below-1 speedups render negative
	// ("-1.20x" = GPU 1.2x slower).
	cases := map[float64]string{
		5.69:    "5.69x",
		1.0:     "1.00x",
		1 / 1.2: "-1.20x",
		0:       "-",
	}
	for in, want := range cases {
		if got := FormatSpeedup(in); got != want {
			t.Errorf("FormatSpeedup(%v) = %q, want %q", in, got, want)
		}
	}
	if FormatSpeedup(math.NaN()) != "-" {
		t.Error("NaN speedup should render as -")
	}
}

func TestBar(t *testing.T) {
	if got := Bar(5, 10, 10); got != "#####" {
		t.Fatalf("Bar = %q", got)
	}
	if got := Bar(0.001, 10, 10); got != "#" {
		t.Fatalf("small Bar = %q, want single #", got)
	}
	if got := Bar(20, 10, 10); len(got) != 10 {
		t.Fatalf("overflow Bar len = %d", len(got))
	}
	if Bar(1, 0, 10) != "" || Bar(-1, 10, 10) != "" {
		t.Fatal("degenerate bars should be empty")
	}
}
