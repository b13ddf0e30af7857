package eval

import (
	"fmt"
	"testing"

	"repro/internal/datalog/ast"
)

// The evaluator and the maintainer share one body solver; these bounds
// keep what one of them needs — a closure, an escaping seed, a per-solve
// map — off the other's path.

// TestRunAllocs pins a from-scratch evaluation of transitive closure over
// a 60-edge chain (the BenchmarkCentralizedEvalTC fixture, parsing aside).
// Measured at 1f2e38f, the last commit where the evaluator had the solver
// to itself: 388–391 over 30 repetitions (the spread is map-bucket
// overflow under the runtime's random hash seed), 396–398 under -race.
// The fixture applies a rule about 60 times, so one allocation per
// application lands far outside the bound.
func TestRunAllocs(t *testing.T) {
	const bound = 400
	prog := mustProg(t, `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`)
	var facts []Tuple
	for i := int64(0); i < 60; i++ {
		facts = append(facts, NewTuple("edge", ast.Int64(i), ast.Int64(i+1)))
	}
	got := testing.AllocsPerRun(10, func() {
		ev, err := New(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		db, err := ev.Run(facts)
		if err != nil || db.Count("path/2") != 60*61/2 {
			t.Fatalf("Run: %v, %d paths", err, db.Count("path/2"))
		}
	})
	t.Logf("New+Run over the 60-edge chain: %.0f allocs (bound %d)", got, bound)
	if got > bound {
		t.Errorf("New+Run allocates %.0f objects, bound %d", got, bound)
	}
}

// TestInsertAllocs bounds one Insert into a warmed SetOfDerivations
// maintainer: a p tuple that joins one of 64 q tuples through the index
// and derives one new r tuple. Measured 14 with the merged solver; its
// own solver cost the maintainer 22 at 1f2e38f.
func TestInsertAllocs(t *testing.T) {
	const measured = 14
	m := newMaint(t, `r(X, Z) :- p(X, Y), q(Y, Z).`, SetOfDerivations)
	for i := int64(0); i < 64; i++ {
		m.Insert(NewTuple("q", ast.Int64(i), ast.Int64(i)))
	}
	const runs = 200
	ps := make([]Tuple, 0, runs+1) // AllocsPerRun warms up with one extra call
	for i := int64(0); i <= runs; i++ {
		ps = append(ps, NewTuple("p", ast.Int64(i), ast.Int64(i%64)))
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		ch, err := m.Insert(ps[next])
		if err != nil || len(ch) != 1 {
			t.Fatalf("Insert(%v): %v, %v", ps[next], ch, err)
		}
		next++
	})
	t.Logf("one Insert: %.1f allocs (measured %d, bound +5%%)", got, measured)
	if got > measured*1.05 {
		t.Errorf("one Insert allocates %.1f objects, bound %.1f", got, measured*1.05)
	}
}

// Tuple.String renders through the append renderer: the same bytes as
// the fmt.Sprintf + FormatTerms form it replaced, zero-arity tuples
// included, in one allocation.
func TestTupleStringOneAlloc(t *testing.T) {
	for _, tup := range []Tuple{
		NewTuple("reach", ast.Symbol("s0_1"), ast.Symbol("X")),
		NewTuple("flag"),
		NewTuple("m", ast.Int64(-4), ast.Float64(2), ast.String_("a\"b"), ast.List(ast.Symbol("x"))),
	} {
		want := fmt.Sprintf("%s(%s)", tup.Name(), ast.FormatTerms(tup.Args))
		if got := tup.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
	tup := NewTuple("reach", ast.Symbol("s0_1"), ast.Symbol("s0_17"))
	if n := testing.AllocsPerRun(100, func() { _ = tup.String() }); n != 1 {
		t.Fatalf("Tuple.String allocs = %v, want 1", n)
	}
}
