package eval

import (
	"strings"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/obs/provenance"
)

// The tree Maintainer.Explain returns is the proof tree of Section IV-C
// (footnote 4), so the tests of it keep that name.

// depth is a tree's height: leaves have depth 1, a derivation adds one.
func depth(t *provenance.Tree) int {
	max := 0
	for _, d := range t.Derivs {
		for _, c := range d.Body {
			if h := depth(c); h > max {
				max = h
			}
		}
	}
	return max + 1
}

func TestProofTreeUnfoldsToBase(t *testing.T) {
	src := `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`
	m := newMaint(t, src, SetOfDerivations)
	m.Insert(edge("a", "b"))
	m.Insert(edge("b", "c"))
	m.Insert(edge("c", "d"))

	tree, err := m.Explain(NewTuple("path", ast.Symbol("a"), ast.Symbol("d")))
	if err != nil {
		t.Fatal(err)
	}
	if depth(tree) < 3 {
		t.Errorf("depth = %d, want >= 3 (recursive unfolding)", depth(tree))
	}
	// Every leaf must be a base edge tuple.
	var checkLeaves func(p *provenance.Tree)
	checkLeaves = func(p *provenance.Tree) {
		if len(p.Derivs) == 0 {
			if !p.Base || !strings.HasPrefix(p.Key, "edge/2|") {
				t.Errorf("leaf %s is not a base tuple (base=%v)", p.Key, p.Base)
			}
			return
		}
		for _, d := range p.Derivs {
			for _, c := range d.Body {
				checkLeaves(c)
			}
		}
	}
	checkLeaves(tree)
	// The oracle's records carry no transport facts, so its derivation
	// lines are bare.
	out := tree.String()
	if !strings.Contains(out, edge("a", "b").Key()+"  [base]") || !strings.Contains(out, "<- rule 1\n") ||
		strings.Contains(out, "producer") {
		t.Errorf("rendering:\n%s", out)
	}
}

func TestProofTreeErrors(t *testing.T) {
	m := newMaint(t, `d(X) :- s(X).`, SetOfDerivations)
	if _, err := m.Explain(NewTuple("d", ast.Int64(1))); err == nil {
		t.Error("absent tuple should error")
	}
	mc := newMaint(t, `d(X) :- s(X).`, Counting)
	mc.Insert(NewTuple("s", ast.Int64(1)))
	if _, err := mc.Explain(NewTuple("d", ast.Int64(1))); err == nil {
		t.Error("counting mode should reject explanations")
	}
}

func TestCheckLocallyNonRecursivePasses(t *testing.T) {
	src := `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`
	m := newMaint(t, src, SetOfDerivations)
	// DAG edges: locally non-recursive.
	m.Insert(edge("a", "b"))
	m.Insert(edge("b", "c"))
	if err := m.CheckLocallyNonRecursive(); err != nil {
		t.Errorf("DAG should be locally non-recursive: %v", err)
	}
}

func TestCheckLocallyNonRecursiveDetectsCycle(t *testing.T) {
	// A cyclic graph makes path(a,b) depend on itself through path(a,a):
	// path(a,a) is derived from path(a,b) and edge(b,a), and path(a,b)
	// has, besides edge(a,b), a derivation from path(a,a) and edge(a,b).
	src := `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`
	m := newMaint(t, src, SetOfDerivations)
	m.Insert(edge("a", "b"))
	m.Insert(edge("b", "a"))
	err := m.CheckLocallyNonRecursive()
	if _, ok := err.(*ErrDerivationCycle); !ok {
		t.Errorf("err = %v, want *ErrDerivationCycle", err)
	}
}

func TestProofTreeThroughNegationRule(t *testing.T) {
	m := newMaint(t, uncovSrc, SetOfDerivations)
	m.Insert(vehTuple("enemy", 9, 9, 1))
	tree, err := m.Explain(NewTuple("uncov",
		ast.Compound("loc", ast.Int64(9), ast.Int64(9)), ast.Int64(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Derivation lists only the positive subgoal (the veh tuple).
	if len(tree.Derivs) != 1 || len(tree.Derivs[0].Body) != 1 ||
		tree.Derivs[0].Body[0].Key != vehTuple("enemy", 9, 9, 1).Key() {
		t.Errorf("tree = \n%s", tree)
	}
}

// A nullary head has the key "p/0|": nothing follows the separator that
// lookup splits the predicate off at.
func TestProofTreeNullaryHead(t *testing.T) {
	m := newMaint(t, `
p :- q(X).
top(X) :- p, q(X).
`, SetOfDerivations)
	m.Insert(NewTuple("q", ast.Int64(1)))
	p := Tuple{Pred: "p/0"}
	if p.Key() != "p/0|" {
		t.Fatalf("key = %q", p.Key())
	}
	tree, err := m.Explain(NewTuple("top", ast.Int64(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Derivs) != 1 || len(tree.Derivs[0].Body) != 2 {
		t.Fatalf("tree =\n%s", tree)
	}
	if pt := tree.Derivs[0].Body[0]; pt.Key != "p/0|" || len(pt.Derivs) != 1 ||
		len(pt.Derivs[0].Body) != 1 || !strings.HasPrefix(pt.Derivs[0].Body[0].Key, "q/1|") {
		t.Errorf("tree =\n%s", tree)
	}
	if err := m.CheckLocallyNonRecursive(); err != nil {
		t.Error(err)
	}
}

// Children are resolved through the tables' position maps, which a
// compaction renumbers (it runs once 32 slots are dead and outnumber the
// live ones): after 40 deletions the proof must find its child in the
// slot it moved to.
func TestProofTreeAfterCompaction(t *testing.T) {
	m := newMaint(t, `d(X) :- s(X).`, SetOfDerivations)
	s := func(i int64) Tuple { return NewTuple("s", ast.Int64(i)) }
	for i := int64(0); i < 50; i++ {
		m.Insert(s(i))
	}
	tab := m.db.tables["s/1"]
	was := tab.pos[s(45).Key()]
	for i := int64(0); i < 40; i++ {
		m.Delete(s(i))
	}
	if now := tab.pos[s(45).Key()]; now == was {
		t.Fatalf("table did not compact: s(45) still in slot %d of %d", now, len(tab.slots))
	}
	tree, err := m.Explain(NewTuple("d", ast.Int64(45)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Derivs) != 1 || len(tree.Derivs[0].Body) != 1 ||
		tree.Derivs[0].Body[0].Key != s(45).Key() || !tree.Derivs[0].Body[0].Base {
		t.Errorf("tree =\n%s", tree)
	}
}

// Explain lists every stored derivation, in derivation-key order, and
// a body tuple no longer stored shows as a [no live derivation] leaf.
// The maintainer never leaves such a derivation behind, so the test
// removes the child underneath it.
func TestExplainListsEveryDerivation(t *testing.T) {
	m := newMaint(t, `join(X) :- a(X), b(X, Y).`, SetOfDerivations)
	b10 := NewTuple("b", ast.Int64(1), ast.Int64(10))
	b20 := NewTuple("b", ast.Int64(1), ast.Int64(20))
	m.Insert(NewTuple("a", ast.Int64(1)))
	m.Insert(b10)
	m.Insert(b20)
	join := NewTuple("join", ast.Int64(1))

	tree, err := m.Explain(join)
	if err != nil || len(tree.Derivs) != 2 ||
		tree.Derivs[0].Body[1].Key != b10.Key() || tree.Derivs[1].Body[1].Key != b20.Key() {
		t.Fatalf("want both derivations, b(1, 10)'s first: %v\n%s", err, tree)
	}
	m.db.Delete(b10)
	tree, err = m.Explain(join)
	if err != nil || len(tree.Derivs) != 2 || !tree.Derivs[0].Body[1].Missing || !tree.Derivs[1].Body[1].Base {
		t.Fatalf("the removed child should be a missing leaf: %v\n%s", err, tree)
	}
	if !strings.Contains(tree.String(), b10.Key()+"  [no live derivation]") {
		t.Errorf("rendering:\n%s", tree)
	}
}

// Explain costs what the proof costs, not what the database holds: the
// same tuple's tree allocates the same with 10,000 unrelated tuples
// stored next to it.
func TestProofTreeAllocsIndependentOfDatabaseSize(t *testing.T) {
	measure := func(unrelated int) float64 {
		m := newMaint(t, `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`, SetOfDerivations)
		m.Insert(edge("a", "b"))
		m.Insert(edge("b", "c"))
		m.Insert(edge("c", "d"))
		for i := 0; i < unrelated; i++ {
			m.Insert(NewTuple("noise", ast.Int64(int64(i)), ast.Int64(int64(i))))
		}
		target := NewTuple("path", ast.Symbol("a"), ast.Symbol("d"))
		return testing.AllocsPerRun(20, func() {
			if _, err := m.Explain(target); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(0), measure(10000)
	t.Logf("Explain(path(a, d)): %.0f allocs with 0 unrelated tuples, %.0f with 10,000", small, large)
	if small != large {
		t.Errorf("Explain allocations depend on database size: %.0f vs %.0f", small, large)
	}
}
