package core

import (
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// regionProbe wraps a node's runtime to see what the join machinery does
// there: the join-phase timers that fire at it and the join walkers that
// arrive at it.
type regionProbe struct {
	nsim.Handler
	id     nsim.NodeID
	phases *int
	joined map[nsim.NodeID]bool
}

func (h regionProbe) Timer(n *nsim.Node, key string, data interface{}) {
	if key == timerJoinPhase {
		*h.phases++
	}
	h.Handler.Timer(n, key, data)
}

func (h regionProbe) Receive(n *nsim.Node, m *nsim.Message) {
	if m.Kind == kindJoin {
		h.joined[h.id] = true
	}
	h.Handler.Receive(n, m)
}

// probedGrid deploys src on Grid(m) with every runtime wrapped, and the
// core counters on a registry.
func probedGrid(t *testing.T, m int, src string, cfg Config) (*Engine, *nsim.Network, *obs.Registry, *int, map[nsim.NodeID]bool) {
	t.Helper()
	nw := topo.Grid(m, nsim.Config{Seed: 5})
	reg := obs.NewRegistry()
	e, err := Deploy(nw, mustProg(t, src), cfg, reg, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// Start only schedules; every timer and message is dispatched
	// through n.App when the network runs, so wrapping here sees them all.
	phases, joined := new(int), map[nsim.NodeID]bool{}
	for _, n := range nw.Nodes() {
		n.App = regionProbe{Handler: n.App, id: n.ID, phases: phases, joined: joined}
	}
	return e, nw, reg, phases, joined
}

// replicas counts predKey's replicas over every node's store.
func replicas(e *Engine, predKey string) int {
	n := 0
	for _, rt := range e.rts {
		n += rt.store.Count(predKey)
	}
	return n
}

// A head that no rule body reads has no storage region: the two-stream
// join stores no out/2 replica anywhere and runs a join phase only for its
// base updates. The same head read by a rule gets its row back, and a
// predicate read only under negation or only by an aggregate's body keeps
// its replicas.
func TestUnreadHeadIsNotReplicated(t *testing.T) {
	const m = 6
	pairs := func(e *Engine, nw *nsim.Network) []eval.Tuple {
		var base []eval.Tuple
		for i := int64(0); i < 4; i++ {
			a := eval.NewTuple("ra", ast.Int64(i), ast.Int64(i+10))
			b := eval.NewTuple("rb", ast.Int64(i+10), ast.Int64(i+20))
			base = append(base, a, b)
			mustInject(t, e, nsim.Time(i*11), nsim.NodeID(int(i*7+3)%nw.Len()), a)
			mustInject(t, e, nsim.Time(i*11+4), nsim.NodeID(int(i*13+8)%nw.Len()), b)
		}
		return base
	}

	e, nw, _, phases, _ := probedGrid(t, m, joinSrc, Config{Scheme: gpa.Perpendicular})
	base := pairs(e, nw)
	nw.Run(0)
	oracleCompare(t, e, joinSrc, base, "out/2")
	if n := len(e.Derived("out/2")); n != 4 {
		t.Fatalf("derived %d out/2 tuples, want 4", n)
	}
	if n := replicas(e, "out/2"); n != 0 {
		t.Errorf("%d out/2 replicas stored; no rule reads out/2", n)
	}
	if *phases != len(base) {
		t.Errorf("%d join phases ran for %d base updates", *phases, len(base))
	}

	readSrc := joinSrc + "o(X) :- out(X, Z).\n"
	e, nw, _, _, _ = probedGrid(t, m, readSrc, Config{Scheme: gpa.Perpendicular})
	base = pairs(e, nw)
	nw.Run(0)
	oracleCompare(t, e, readSrc, base, "out/2", "o/1")
	if got, want := replicas(e, "out/2"), m*len(e.Derived("out/2")); got != want {
		t.Errorf("with o/1 reading out/2: %d out/2 replicas, want one per row node (%d)", got, want)
	}

	negSrc := joinSrc + ".base ex/1.\nkept(X, Z) :- out(X, Z), NOT ex(X).\n"
	e, nw, _, _, _ = probedGrid(t, m, negSrc, Config{Scheme: gpa.Perpendicular})
	base = pairs(e, nw)
	ex := eval.NewTuple("ex", ast.Int64(1))
	mustInject(t, e, 2, 17, ex)
	nw.Run(0)
	oracleCompare(t, e, negSrc, append(base, ex), "kept/2")
	if n := replicas(e, "ex/1"); n != m {
		t.Errorf("ex/1, read only negated: %d replicas, want %d", n, m)
	}

	aggSrc := ".base s/2.\ncnt(count<Y>) :- s(X, Y).\n"
	e, nw, _, _, _ = probedGrid(t, m, aggSrc, Config{Scheme: gpa.Perpendicular})
	for i := 0; i < 3; i++ {
		mustInject(t, e, nsim.Time(i*5), nsim.NodeID(i*11), eval.NewTuple("s", ast.Int64(int64(i)), ast.Int64(7)))
	}
	if err := e.CollectAggregateAt(2000, "cnt/1", 0); err != nil {
		t.Fatal(err)
	}
	nw.Run(0)
	if n := replicas(e, "s/2"); n != 3*m {
		t.Errorf("s/2, read only by an aggregate: %d replicas, want %d", n, 3*m)
	}
	if got := e.AggregateResult("cnt/1"); len(got) != 1 || got[0].Args[0].Int != 3 {
		t.Errorf("cnt = %v, want [cnt(3)]", got)
	}
}

// A partial one probe from complete is joined by two sweeps from its
// source, one toward each end of the column: from every node of the grid a
// two-stream update costs m-1 join messages and probes exactly its column,
// once per node. A three-stream update still seeks to the column's low end
// and sweeps it in one pass, y + m - 1 messages from row y, and derives
// what the oracle does.
func TestTwoWaySweep(t *testing.T) {
	const m = 6
	for _, c := range []struct {
		src  string
		cost func(y int) int64
	}{
		{joinSrc, func(int) int64 { return m - 1 }},
		{threeWaySrc, func(y int) int64 { return int64(y + m - 1) }},
	} {
		for src := nsim.NodeID(0); src < m*m; src++ {
			e, nw, reg, _, joined := probedGrid(t, m, c.src, Config{Scheme: gpa.Perpendicular})
			mustInject(t, e, 0, src, eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)))
			nw.Run(0)
			x, y := topo.GridCoords(m, src)
			if got, want := nw.KindCounts()[kindJoin], c.cost(y); got != want {
				t.Fatalf("update at (%d,%d): %d join messages, want %d", x, y, got, want)
			}
			if c.src != joinSrc {
				continue
			}
			if got := reg.Snapshot().Get("core.probes"); got != m {
				t.Errorf("update at (%d,%d): %d probes, want one per column node (%d)", x, y, got, m)
			}
			joined[src] = true // the source probes before any walker leaves
			for q := 0; q < m; q++ {
				if !joined[topo.GridID(m, x, q)] {
					t.Errorf("update at (%d,%d): column node (%d,%d) never joined", x, y, x, q)
				}
			}
			if len(joined) != m {
				t.Errorf("update at (%d,%d): join walkers reached %d nodes, want the %d of its column", x, y, len(joined), m)
			}
		}
	}

	e, nw := buildGrid(t, m, threeWaySrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 8})
	var base []eval.Tuple
	for i := int64(0); i < 4; i++ {
		a := eval.NewTuple("ra", ast.Int64(i), ast.Int64(i+1))
		b := eval.NewTuple("rb", ast.Int64(i+1), ast.Int64(i+2))
		c := eval.NewTuple("rc", ast.Int64(i+2), ast.Int64(i+3))
		base = append(base, a, b, c)
		mustInject(t, e, nsim.Time(i*7), nsim.NodeID(int(i*3)%nw.Len()), a)
		mustInject(t, e, nsim.Time(i*7+2), nsim.NodeID(int(i*5+7)%nw.Len()), b)
		mustInject(t, e, nsim.Time(i*7+4), nsim.NodeID(int(i*9+20)%nw.Len()), c)
	}
	nw.Run(0)
	oracleCompare(t, e, threeWaySrc, base, "out3/2")
	if n := len(e.Derived("out3/2")); n != 4 {
		t.Errorf("derived %d out3/2 tuples, want 4", n)
	}
}
