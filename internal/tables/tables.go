// Package tables renders experiment results as aligned ASCII tables and
// simple series charts, the textual equivalent of the paper's figures.
package tables

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New creates a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept as-is.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// FormatFloat renders a float compactly: 3 significant-ish digits with
// magnitude-aware precision, NaN as "-".
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.2e", v)
	}
}

// FormatSpeedup renders a speedup the way the paper's Figure 1 annotates
// it: values below 1 become negative ("-1.20x speedup" means the GPU is
// 1.2× slower).
func FormatSpeedup(s float64) string {
	if math.IsNaN(s) || s == 0 {
		return "-"
	}
	if s >= 1 {
		return fmt.Sprintf("%.2fx", s)
	}
	return fmt.Sprintf("-%.2fx", 1/s)
}

// Bar renders a proportional ASCII bar of at most width characters.
func Bar(value, max float64, width int) string {
	if max <= 0 || value <= 0 || width <= 0 {
		return ""
	}
	n := int(math.Round(value / max * float64(width)))
	if n > width {
		n = width
	}
	if n < 1 {
		n = 1
	}
	return strings.Repeat("#", n)
}
