package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/nsim"
)

// derivedByWalk is the per-node walk Engine.Derived was before the
// engine kept its derived set as one database: the union of every node's
// homed records, deduplicated by key (a fault can home one tuple at two
// nodes), in canonical order. It stays as the reference the view is held
// to (TestDerivedViewMatchesWalk) and measured against
// (BenchmarkDerived80).
func (e *Engine) derivedByWalk(predKey string) []eval.Tuple {
	seen := map[string]eval.Tuple{}
	for _, rt := range e.rts {
		for k, h := range rt.homed {
			if h.t.Pred == predKey {
				seen[k] = h.t
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]eval.Tuple, 0, len(keys))
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out
}

// DerivedByWalk hands the reference to the external test package, which
// can import internal/check.
var DerivedByWalk = (*Engine).derivedByWalk

// BenchmarkDerived80 reads the derived set of logicJ at quiescence on an
// 80×80 grid: j/2 (6,400 tuples: copy and sort) and a predicate nothing
// derives (the floor of a call). By the view neither depends on the node
// count; the walk visits all 6,400 nodes' maps either way.
//
//	go test -run '^$' -bench Derived80 -benchmem ./internal/core/
func BenchmarkDerived80(b *testing.B) {
	const m = 80
	nw := topoGrid(m)
	e, err := Deploy(nw, mustProg(b, logicJSrc+"\nj(n0, 0).\n"), Config{}, nil, nil, false)
	if err != nil {
		b.Fatal(err)
	}
	injectGridEdges(e, nw)
	nw.Run(0)
	for _, read := range []struct {
		name string
		fn   func(*Engine, string) []eval.Tuple
	}{{"view", (*Engine).Derived}, {"walk", (*Engine).derivedByWalk}} {
		for pred, want := range map[string]int{"j/2": m * m, "none/0": 0} {
			b.Run(read.name+"/"+pred, func(b *testing.B) {
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					if got := read.fn(e, pred); len(got) != want {
						b.Fatalf("%s: %d tuples, want %d", pred, len(got), want)
					}
				}
			})
		}
	}
}

// A base fact reported twice and deleted once is deleted: the deletion
// retracts both generations, each from the node that generated it.
// Engine.baseIDs used to hold only the latest generation of a key, so
// the earlier one could never be named again and reach(a, b) stayed
// derived for good.
func TestReReportedBaseFactCanBeDeleted(t *testing.T) {
	const src = `
.base link/2.
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
`
	ab := eval.NewTuple("link", ast.Symbol("a"), ast.Symbol("b"))
	bc := eval.NewTuple("link", ast.Symbol("b"), ast.Symbol("c"))
	for _, second := range []nsim.NodeID{0, 5} {
		t.Run(fmt.Sprintf("second report at node %d", second), func(t *testing.T) {
			e, nw := buildGrid(t, 3, src, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 7})
			for _, node := range []nsim.NodeID{0, second} {
				if err := e.Inject(node, ab); err != nil {
					t.Fatal(err)
				}
				nw.Run(0)
			}
			if err := e.Inject(2, bc); err != nil {
				t.Fatal(err)
			}
			nw.Run(0)
			oracleCompare(t, e, src, []eval.Tuple{ab, bc}, "reach/2")
			if err := e.InjectDeleteAt(nw.Now()+1, 0, ab); err != nil {
				t.Fatal(err)
			}
			nw.Run(0)
			oracleCompare(t, e, src, []eval.Tuple{bc}, "reach/2")
			if g, live := e.baseIDs[ab.Key()]; live {
				t.Errorf("link(a, b) still has live generations: %+v", g)
			}
			// Reported again, it is live again, with one generation.
			if err := e.Inject(second, ab); err != nil {
				t.Fatal(err)
			}
			nw.Run(0)
			oracleCompare(t, e, src, []eval.Tuple{ab, bc}, "reach/2")
			if err := e.InjectDelete(second, ab); err != nil {
				t.Fatal(err)
			}
			nw.Run(0)
			oracleCompare(t, e, src, []eval.Tuple{bc}, "reach/2")
		})
	}
}

// ExtraHomes counts the tuples homed at more than one node.
func ExtraHomes(e *Engine) int { return len(e.extraHomes) }
