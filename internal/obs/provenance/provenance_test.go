package provenance

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// fake is a map-backed Source: head key → its live derivations.
type fake map[string][]Derivation

func (f fake) add(r Record, body ...string) {
	f[r.Head] = append(f[r.Head], Derivation{Record: r, Body: body})
}

// src reports head's derivations sorted by deriv key, as a Source must.
func (f fake) src(head string) []Derivation {
	ds := slices.Clone(f[head])
	slices.SortFunc(ds, func(a, b Derivation) int { return strings.Compare(a.DerivKey, b.DerivKey) })
	return ds
}

// base marks leaf keys for Explain/Blame in these tests.
func base(keys ...string) func(string) bool {
	set := map[string]bool{}
	for _, k := range keys {
		set[k] = true
	}
	return func(k string) bool { return set[k] }
}

func TestExplainUnfoldsToBase(t *testing.T) {
	g := fake{}
	g.add(Record{Rule: 1, Head: "c", DerivKey: "dc", SettledAt: 30}, "b", "x")
	g.add(Record{Rule: 0, Head: "b", DerivKey: "db", SettledAt: 10}, "x", "y")
	tree := Explain("c", g.src, base("x", "y"))
	if tree == nil || tree.Key != "c" || len(tree.Derivs) != 1 {
		t.Fatalf("tree = %+v", tree)
	}
	d := tree.Derivs[0]
	if d.Rule != 1 || len(d.Body) != 2 {
		t.Fatalf("deriv = %+v", d)
	}
	if !d.Body[1].Base || d.Body[1].Key != "x" {
		t.Fatalf("x should be a base leaf: %+v", d.Body[1])
	}
	inner := d.Body[0]
	if inner.Key != "b" || len(inner.Derivs) != 1 || !inner.Derivs[0].Body[0].Base {
		t.Fatalf("b should unfold to base leaves: %+v", inner)
	}
	if missing := Explain("nope", g.src, base()); missing == nil || !missing.Missing {
		t.Fatalf("unknown key should explain to a missing leaf, got %+v", missing)
	}
}

// A tuple whose derivation cycles back to itself renders as a [cycle]
// leaf instead of recursing forever.
func TestExplainCutsCycles(t *testing.T) {
	g := fake{}
	g.add(Record{Rule: 0, Head: "p", DerivKey: "d1"}, "q")
	g.add(Record{Rule: 0, Head: "q", DerivKey: "d2"}, "p")
	tree := Explain("p", g.src, base())
	if tree == nil {
		t.Fatal("cyclic graph should still explain")
	}
	q := tree.Derivs[0].Body[0]
	if q.Key != "q" || len(q.Derivs) != 1 {
		t.Fatalf("q = %+v", q)
	}
	back := q.Derivs[0].Body[0]
	if !back.Cycle || back.Key != "p" {
		t.Fatalf("the back edge should be a cycle leaf: %+v", back)
	}
	if !strings.Contains(tree.String(), "[cycle]") {
		t.Fatalf("render should mark the cycle:\n%s", tree.String())
	}
}

// A body key with no live derivation (e.g. deleted since) renders as a [missing] leaf.
func TestExplainMarksMissing(t *testing.T) {
	g := fake{}
	g.add(Record{Rule: 0, Head: "a", DerivKey: "d1"}, "gone")
	tree := Explain("a", g.src, base())
	leaf := tree.Derivs[0].Body[0]
	if !leaf.Missing || leaf.Key != "gone" {
		t.Fatalf("leaf = %+v", leaf)
	}
	if !strings.Contains(tree.String(), "[no live derivation]") {
		t.Fatalf("render should mark missing:\n%s", tree.String())
	}
}

func TestBlameFollowsCriticalPath(t *testing.T) {
	g := fake{}
	// top depends on fast (settled 10) and slow (settled 80); the
	// critical path must descend into slow.
	g.add(Record{Rule: 2, Head: "top", DerivKey: "dt", SentAt: 85, SettledAt: 100, Hops: 2}, "fast", "slow")
	g.add(Record{Rule: 0, Head: "fast", DerivKey: "df", SentAt: 5, SettledAt: 10})
	g.add(Record{Rule: 1, Head: "slow", DerivKey: "ds", SentAt: 40, SettledAt: 80, Hops: 1})
	bl := Blame("top", g.src, base())
	if bl == nil || bl.Total != 100 || len(bl.Steps) != 2 {
		t.Fatalf("blame = %+v", bl)
	}
	if bl.Steps[0].Key != "top" || bl.Steps[1].Key != "slow" {
		t.Fatalf("critical path = %s -> %s, want top -> slow", bl.Steps[0].Key, bl.Steps[1].Key)
	}
	// Route is the candidate's in-flight time (settle 100 - sent 85);
	// Wait is the settle-to-settle gap to the prerequisite (100 - 80).
	if bl.Steps[0].Route != 15 || bl.Steps[0].Wait != 20 {
		t.Fatalf("top step: route %d wait %d, want 15/20", bl.Steps[0].Route, bl.Steps[0].Wait)
	}
	if !strings.Contains(bl.String(), "critical path") {
		t.Fatalf("render:\n%s", bl.String())
	}
	if Blame("nope", g.src, base()) != nil {
		t.Fatal("unknown key should blame to nil")
	}
}

// With several live derivations, Blame explains the earliest-settling
// one — the derivation that actually made the tuple true.
func TestBlamePicksEarliestDerivation(t *testing.T) {
	g := fake{}
	g.add(Record{Rule: 0, Head: "a", DerivKey: "late", SettledAt: 50})
	g.add(Record{Rule: 1, Head: "a", DerivKey: "early", SettledAt: 20})
	bl := Blame("a", g.src, base())
	if bl.Total != 20 || bl.Steps[0].Rule != 1 {
		t.Fatalf("blame picked settle %d rule %d, want the rule-1 derivation at 20", bl.Total, bl.Steps[0].Rule)
	}
}

func TestWriteDOT(t *testing.T) {
	g := fake{}
	g.add(Record{Rule: 3, Head: "a\"quoted\"", DerivKey: "d1"}, "x")
	tree := Explain("a\"quoted\"", g.src, base("x"))
	var buf bytes.Buffer
	if err := WriteDOT(&buf, tree); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, part := range []string{"digraph explain", "rule 3", "->", `\"quoted\"`} {
		if !strings.Contains(out, part) {
			t.Fatalf("DOT output missing %q:\n%s", part, out)
		}
	}
}

func TestWriteJSONLTree(t *testing.T) {
	g := fake{}
	g.add(Record{Rule: 1, Head: "c", DerivKey: "dc"}, "b")
	g.add(Record{Rule: 0, Head: "b", DerivKey: "db"}, "x")
	tree := Explain("c", g.src, base("x"))
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tree); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want one per tuple and derivation node:\n%s", len(lines), buf.String())
	}
	type row struct {
		ID     int    `json:"id"`
		Parent int    `json:"parent"`
		Kind   string `json:"kind"`
		Key    string `json:"key"`
		Rule   int    `json:"rule"`
		Base   bool   `json:"base"`
	}
	var rows []row
	for i, line := range lines {
		var r row
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("line %d invalid JSON: %v", i, err)
		}
		rows = append(rows, r)
	}
	if rows[0].Key != "c" || rows[0].Parent != -1 || rows[0].Kind != "tuple" {
		t.Fatalf("root row = %+v", rows[0])
	}
	if rows[1].Kind != "deriv" || rows[1].Rule != 1 || rows[1].Parent != 0 {
		t.Fatalf("deriv row = %+v", rows[1])
	}
	last := rows[len(rows)-1]
	if last.Key != "x" || !last.Base {
		t.Fatalf("leaf row = %+v", last)
	}
}
