// Package core is the public facade of the reproduction: it composes the
// substrate packages (msa, mpi, nn, distdl, data, svm, qa, sched, storage,
// perfmodel) into the high-level operations a user of the MSA performs —
// building a system description, training models data-parallel across
// simulated modules, and regenerating every table and figure of the paper
// through the experiment harness (E1–E13, indexed in DESIGN.md).
package core

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table used by every experiment
// report. Measured numbers are labeled "meas:" and model projections
// "model:" at the row level by convention (see DESIGN.md §5).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column names.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row; cell counts beyond the header are allowed but
// trimmed in rendering.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.Header)
	widths := make([]int, cols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i := 0; i < cols && i < len(row); i++ {
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Result is one experiment's output: a human-readable report plus the
// key metrics tests and EXPERIMENTS.md assertions consume.
type Result struct {
	ID      string
	Title   string
	Report  string
	Metrics map[string]float64
}

// Metric fetches a named metric, panicking on absence (experiments own
// their metric vocabulary; a typo is a bug).
func (r Result) Metric(name string) float64 {
	v, ok := r.Metrics[name]
	if !ok {
		panic(fmt.Sprintf("core: experiment %s has no metric %q", r.ID, name))
	}
	return v
}
