// Package metrics collects experiment measurements and renders the
// tables and series of EXPERIMENTS.md in a uniform plain-text format.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is a simple column-aligned results table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the formatted rows.
func (t *Table) Rows() [][]string { return t.rows }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	var head strings.Builder
	for i, c := range t.Columns {
		fmt.Fprintf(&head, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(head.String(), " "))
	fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths)))
	for _, r := range t.rows {
		var line strings.Builder
		for i, c := range r {
			if i < len(widths) {
				fmt.Fprintf(&line, "%-*s  ", widths[i], c)
			} else {
				fmt.Fprintf(&line, "%s  ", c)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(line.String(), " "))
	}
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func lineWidth(widths []int) int {
	n := 0
	for _, w := range widths {
		n += w + 2
	}
	if n >= 2 {
		n -= 2
	}
	return n
}

// SnapshotTable renders a counter snapshot (dotted name → value, as
// produced by obs.Snapshot) as a two-column table in sorted name
// order. When prefixes are given, only counters whose name starts with
// one of them are included.
func SnapshotTable(title string, counters map[string]int64, prefixes ...string) *Table {
	t := NewTable(title, "counter", "value")
	names := make([]string, 0, len(counters))
	for name := range counters {
		if len(prefixes) > 0 {
			keep := false
			for _, p := range prefixes {
				if strings.HasPrefix(name, p) {
					keep = true
					break
				}
			}
			if !keep {
				continue
			}
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.AddRow(name, counters[name])
	}
	return t
}
