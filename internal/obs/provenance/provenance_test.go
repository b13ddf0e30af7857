package provenance

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func rec(head, dk string, rule int32) Record {
	return Record{Rule: rule, Head: head, DerivKey: dk}
}

func TestNilGraphIsNoOp(t *testing.T) {
	var g *Graph
	g.Add(rec("a", "d1", 0), []string{"b"})
	g.Remove("a", "d1")
	g.Reset()
	if g.Live("a") || g.LiveCount() != 0 || g.Captured() != 0 {
		t.Fatal("nil graph should report nothing")
	}
	if g.Explain("a", nil) != nil || g.Blame("a", nil) != nil {
		t.Fatal("nil graph should explain nothing")
	}
	if ds := g.Derivations("a"); ds != nil {
		t.Fatalf("nil graph returned derivations %v", ds)
	}
}

func TestAddRemoveLiveness(t *testing.T) {
	g := NewGraph()
	g.Add(rec("a", "d1", 0), []string{"x", "y"})
	g.Add(rec("a", "d2", 1), []string{"z"})
	// LiveCount counts live derivation records, not distinct tuples.
	if !g.Live("a") || g.LiveCount() != 2 || g.Captured() != 2 {
		t.Fatalf("live=%v liveCount=%d captured=%d", g.Live("a"), g.LiveCount(), g.Captured())
	}
	ds := g.Derivations("a")
	if len(ds) != 2 || ds[0].DerivKey != "d1" || ds[1].DerivKey != "d2" {
		t.Fatalf("derivations = %+v", ds)
	}
	if len(ds[0].Body) != 2 || ds[0].Body[0] != "x" || ds[0].Body[1] != "y" {
		t.Fatalf("body = %v", ds[0].Body)
	}

	// Set-of-derivations semantics: the tuple stays live until its last
	// derivation is removed.
	g.Remove("a", "d1")
	if !g.Live("a") || g.LiveCount() != 1 {
		t.Fatal("one live derivation left; tuple should stay live")
	}
	g.Remove("a", "d2")
	if g.Live("a") || g.LiveCount() != 0 {
		t.Fatal("no derivations left; tuple should be dead")
	}
	// Captured is a lifetime count; removal does not rewrite history.
	if g.Captured() != 2 {
		t.Fatalf("captured = %d after removals, want 2", g.Captured())
	}
	// Removing an unknown derivation is a no-op, not a panic.
	g.Remove("a", "d9")
	g.Remove("never-seen", "d1")
}

// Add/Remove churn leaves only the live records behind: the heap the
// graph holds does not grow with the cycles, only Captured does.
func TestChurnKeepsOnlyLiveRecords(t *testing.T) {
	g := NewGraph()
	g.Add(rec("a", "d1", 0), []string{"x"})
	body := []string{"link/2|a\"c31\",a\"c32\"", "reach/2|a\"c0\",a\"c31\""}
	churn := func(k int) {
		for i := 0; i < k; i++ {
			g.Add(rec("b", "d2", 1), body)
			g.Remove("b", "d2")
		}
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	churn(100)
	before := heap()
	churn(20000)
	if grew := heap() - before; grew > 256<<10 {
		t.Errorf("20000 add/remove cycles grew the heap by %d B; removed records must not be retained", grew)
	}
	if g.LiveCount() != 1 || g.Captured() != 20101 || g.Live("b") || len(g.Derivations("a")) != 1 {
		t.Errorf("live=%d captured=%d, want 1 live record of 20101 captured", g.LiveCount(), g.Captured())
	}
}

func TestReset(t *testing.T) {
	g := NewGraph()
	g.Add(rec("a", "d1", 0), []string{"b"})
	g.Reset()
	if g.Live("a") || g.LiveCount() != 0 || g.Captured() != 0 {
		t.Fatal("reset should wipe everything")
	}
	g.Add(rec("a", "d1", 0), []string{"b"})
	if !g.Live("a") || g.Captured() != 1 {
		t.Fatal("graph should be reusable after reset")
	}
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
	g := NewGraph()
	g.Add(Record{Rule: 1, Head: "c", DerivKey: "dc", SettledAt: 30}, []string{"b", "x"})
	g.Add(Record{Rule: 0, Head: "b", DerivKey: "db", SettledAt: 10}, []string{"x", "y"})
	tree := g.Explain("c", base("x", "y"))
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
	if missing := g.Explain("nope", base()); missing == nil || !missing.Missing {
		t.Fatalf("unknown key should explain to a missing leaf, got %+v", missing)
	}
}

// A tuple whose derivation cycles back to itself renders as a [cycle]
// leaf instead of recursing forever.
func TestExplainCutsCycles(t *testing.T) {
	g := NewGraph()
	g.Add(Record{Rule: 0, Head: "p", DerivKey: "d1"}, []string{"q"})
	g.Add(Record{Rule: 0, Head: "q", DerivKey: "d2"}, []string{"p"})
	tree := g.Explain("p", base())
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

// A body key with no live derivation (e.g. captured before attach)
// renders as a [missing] leaf.
func TestExplainMarksMissing(t *testing.T) {
	g := NewGraph()
	g.Add(Record{Rule: 0, Head: "a", DerivKey: "d1"}, []string{"gone"})
	tree := g.Explain("a", base())
	leaf := tree.Derivs[0].Body[0]
	if !leaf.Missing || leaf.Key != "gone" {
		t.Fatalf("leaf = %+v", leaf)
	}
	if !strings.Contains(tree.String(), "[no live derivation]") {
		t.Fatalf("render should mark missing:\n%s", tree.String())
	}
}

func TestBlameFollowsCriticalPath(t *testing.T) {
	g := NewGraph()
	// top depends on fast (settled 10) and slow (settled 80); the
	// critical path must descend into slow.
	g.Add(Record{Rule: 2, Head: "top", DerivKey: "dt", SentAt: 85, SettledAt: 100, Hops: 2}, []string{"fast", "slow"})
	g.Add(Record{Rule: 0, Head: "fast", DerivKey: "df", SentAt: 5, SettledAt: 10}, nil)
	g.Add(Record{Rule: 1, Head: "slow", DerivKey: "ds", SentAt: 40, SettledAt: 80, Hops: 1}, nil)
	bl := g.Blame("top", base())
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
	if g.Blame("nope", base()) != nil {
		t.Fatal("unknown key should blame to nil")
	}
}

// With several live derivations, Blame explains the earliest-settling
// one — the derivation that actually made the tuple true.
func TestBlamePicksEarliestDerivation(t *testing.T) {
	g := NewGraph()
	g.Add(Record{Rule: 0, Head: "a", DerivKey: "late", SettledAt: 50}, nil)
	g.Add(Record{Rule: 1, Head: "a", DerivKey: "early", SettledAt: 20}, nil)
	bl := g.Blame("a", base())
	if bl.Total != 20 || bl.Steps[0].Rule != 1 {
		t.Fatalf("blame picked settle %d rule %d, want the rule-1 derivation at 20", bl.Total, bl.Steps[0].Rule)
	}
}

func TestWriteDOT(t *testing.T) {
	g := NewGraph()
	g.Add(Record{Rule: 3, Head: "a\"quoted\"", DerivKey: "d1"}, []string{"x"})
	tree := g.Explain("a\"quoted\"", base("x"))
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
	g := NewGraph()
	g.Add(Record{Rule: 1, Head: "c", DerivKey: "dc"}, []string{"b"})
	g.Add(Record{Rule: 0, Head: "b", DerivKey: "db"}, []string{"x"})
	tree := g.Explain("c", base("x"))
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
