package metrics

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Title here", "col1", "longer column", "c")
	tbl.AddRow(1, "x", 3.14159)
	tbl.AddRow("wide value", 2, 3)
	out := tbl.String()

	if !strings.HasPrefix(out, "Title here\n") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "col1") || !strings.Contains(lines[1], "longer column") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(lines[3], "3.14") {
		t.Errorf("float not formatted to 2 places: %q", lines[3])
	}
	// Columns align: "longer column" starts at the same offset in header
	// and both rows.
	off := strings.Index(lines[1], "longer column")
	if strings.Index(lines[3], "x") != off && strings.Index(lines[4], "2") != off {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestTableWithoutTitle(t *testing.T) {
	tbl := NewTable("", "a")
	tbl.AddRow(1)
	if strings.HasPrefix(tbl.String(), "\n") {
		t.Error("empty title should not emit a blank line")
	}
}

func TestRowsAccessor(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.AddRow(1, 2)
	tbl.AddRow(3, 4)
	rows := tbl.Rows()
	if len(rows) != 2 || rows[0][0] != "1" || rows[1][1] != "4" {
		t.Errorf("rows = %v", rows)
	}
}

func TestExtraCellsDoNotPanic(t *testing.T) {
	tbl := NewTable("t", "only")
	tbl.AddRow(1, 2, 3) // more cells than columns
	_ = tbl.String()    // must not panic
}
