package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/nsim"
)

// BenchmarkDerived80 reads the derived set of logicJ at quiescence on an
// 80×80 grid: j/2 (6,400 tuples: copy and sort) and a predicate nothing
// derives (the floor of a call). Derived walks all 6,400 nodes' maps
// either way.
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
	for pred, want := range map[string]int{"j/2": m * m, "none/0": 0} {
		b.Run(pred, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if got := e.Derived(pred); len(got) != want {
					b.Fatalf("%s: %d tuples, want %d", pred, len(got), want)
				}
			}
		})
	}
}

// homes lists every home record, node by node and each node's in key
// order: the order a replay wipe logs their removals in.
func homes(e *Engine) []ResultEvent {
	var out []ResultEvent
	for _, rt := range e.rts {
		keys := make([]string, 0, len(rt.homed))
		for k := range rt.homed {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = append(out, ResultEvent{Tuple: rt.homed[k].t, Node: rt.node.ID})
		}
	}
	return out
}

// MultiHomed counts the tuples homed at more than one node.
func MultiHomed(e *Engine) int {
	n := map[string]int{}
	for _, h := range homes(e) {
		n[h.Tuple.Key()]++
	}
	multi := 0
	for _, c := range n {
		if c > 1 {
			multi++
		}
	}
	return multi
}

// The log is per home: reach(a, c) settles at its home, the home
// crashes, and a second derivation settles it at the live node nearest
// the home point, so the log holds two inserts of it, one per node. A
// replay wipe then logs one removal per home record, node by node and
// each node's in key order (a chain of links puts two or more records
// at some node), and two identical runs log the same events. The
// program fact reach(z, z) is homed like a derived tuple, and read back.
func TestResultLogIsPerHome(t *testing.T) {
	const src = `
.base link/2.
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
reach(z, z).
.query reach/2.
`
	link := func(a, b string) eval.Tuple { return eval.NewTuple("link", ast.Symbol(a), ast.Symbol(b)) }
	ac := eval.NewTuple("reach", ast.Symbol("a"), ast.Symbol("c"))
	zz := eval.NewTuple("reach", ast.Symbol("z"), ast.Symbol("z"))
	hasZZ := func(e *Engine, when string) {
		t.Helper()
		if !slices.ContainsFunc(e.Derived("reach/2"), func(t eval.Tuple) bool { return t.Key() == zz.Key() }) {
			t.Fatalf("%s: Derived misses the program fact reach(z, z)", when)
		}
	}
	run := func() []ResultEvent {
		e, nw := buildGrid(t, 3, src, Config{}, nsim.Config{Seed: 7})
		for i := 0; i < 5; i++ {
			if err := e.Inject(nsim.NodeID(i), link(fmt.Sprint("p", i), fmt.Sprint("p", i+1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Inject(0, link("a", "c")); err != nil {
			t.Fatal(err)
		}
		nw.Run(0)
		hasZZ(e, "started")
		first := slices.IndexFunc(e.ResultLog, func(ev ResultEvent) bool { return ev.Tuple.Key() == ac.Key() })
		home := nw.Node(e.ResultLog[first].Node)
		home.Down = true
		for _, l := range []eval.Tuple{link("a", "b"), link("b", "c")} {
			if err := e.Inject((home.ID+1)%9, l); err != nil {
				t.Fatal(err)
			}
		}
		nw.Run(0)
		home.Down = false
		var at []nsim.NodeID
		for _, ev := range e.ResultLog {
			if ev.Tuple.Key() == ac.Key() {
				if !ev.Insert {
					t.Fatalf("reach(a, c) lost a home: %+v", ev)
				}
				at = append(at, ev.Node)
			}
		}
		if len(at) != 2 || at[0] != home.ID || at[1] == home.ID {
			t.Fatalf("reach(a, c) inserted at %v; want its home %d, then another node", at, home.ID)
		}
		if MultiHomed(e) != 1 {
			t.Fatalf("%d tuples have two homes, want reach(a, c) alone", MultiHomed(e))
		}
		want := homes(e)
		shared := false
		for i := 1; i < len(want); i++ {
			shared = shared || want[i].Node == want[i-1].Node
		}
		if !shared {
			t.Fatal("no node holds two home records: the wipe's key order went untested")
		}
		before := len(e.ResultLog)
		e.Replay()
		nw.Run(0)
		wiped := e.ResultLog[before:]
		if len(wiped) < len(want) {
			t.Fatalf("the replay logged %d events, want at least the %d removals", len(wiped), len(want))
		}
		for i, h := range want {
			if ev := wiped[i]; ev.Insert || ev.Node != h.Node || ev.Tuple.Key() != h.Tuple.Key() {
				t.Fatalf("replay event %d is %+v, want the removal of %s at node %d", i, ev, h.Tuple, h.Node)
			}
		}
		for _, ev := range wiped[len(want):] {
			if !ev.Insert {
				t.Fatalf("the replay logged a removal past its wipe: %+v", ev)
			}
		}
		hasZZ(e, "replayed")
		return e.ResultLog
	}
	first, second := run(), run()
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("two identical runs logged different events:\n%v\n%v", first, second)
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
			if err := e.InjectDeleteAt(nw.Now(), second, ab); err != nil {
				t.Fatal(err)
			}
			nw.Run(0)
			oracleCompare(t, e, src, []eval.Tuple{bc}, "reach/2")
		})
	}
}
