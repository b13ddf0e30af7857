package core

import (
	"fmt"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/parser"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/topo"
)

func mustProg(t testing.TB, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// buildGrid returns an engine over an m×m grid.
func buildGrid(t testing.TB, m int, src string, cfg Config, simCfg nsim.Config) (*Engine, *nsim.Network) {
	t.Helper()
	nw := topo.Grid(m, simCfg)
	e, err := Deploy(nw, mustProg(t, src), cfg, nil, nil, false)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return e, nw
}

// oracleCompare checks that the engine's derived state matches the
// centralized evaluator over the surviving base facts.
func oracleCompare(t *testing.T, e *Engine, src string, base []eval.Tuple, preds ...string) {
	t.Helper()
	ev, err := eval.New(mustProg(t, src), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ev.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range preds {
		w := want.Tuples(pred)
		g := e.Derived(pred)
		if len(w) != len(g) {
			t.Fatalf("%s: engine has %d tuples, oracle %d\nengine: %v\noracle: %v",
				pred, len(g), len(w), g, w)
		}
		for i := range w {
			if !w[i].Equal(g[i]) {
				t.Fatalf("%s[%d]: engine %v, oracle %v", pred, i, g[i], w[i])
			}
		}
	}
}

const joinSrc = `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
`

func TestTwoStreamJoinPA(t *testing.T) {
	e, nw := buildGrid(t, 6, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 1})
	base := []eval.Tuple{
		eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)),
		eval.NewTuple("rb", ast.Int64(2), ast.Int64(3)),
		eval.NewTuple("ra", ast.Int64(7), ast.Int64(8)),
		eval.NewTuple("rb", ast.Int64(8), ast.Int64(9)),
		eval.NewTuple("rb", ast.Int64(5), ast.Int64(6)), // no partner
	}
	// Spread generation across distinct nodes and times.
	for i, b := range base {
		e.InjectAt(nsim.Time(i*3), nsim.NodeID((i*7)%nw.Len()), b)
	}
	nw.Run(0)
	oracleCompare(t, e, joinSrc, base, "out/2")
}

func TestTwoStreamJoinAllSchemes(t *testing.T) {
	for _, scheme := range []gpa.Scheme{gpa.Perpendicular, gpa.NaiveBroadcast, gpa.LocalStorage, gpa.Centralized, gpa.Centroid} {
		t.Run(scheme.String(), func(t *testing.T) {
			e, nw := buildGrid(t, 5, joinSrc, Config{Scheme: scheme, Server: 12}, nsim.Config{Seed: 2})
			var base []eval.Tuple
			for i := 0; i < 6; i++ {
				ra := eval.NewTuple("ra", ast.Int64(int64(i%3)), ast.Int64(int64(i)))
				rb := eval.NewTuple("rb", ast.Int64(int64(i)), ast.Int64(int64(i*10)))
				base = append(base, ra, rb)
				e.InjectAt(nsim.Time(i*5), nsim.NodeID((2*i)%nw.Len()), ra)
				e.InjectAt(nsim.Time(i*5+2), nsim.NodeID((2*i+9)%nw.Len()), rb)
			}
			nw.Run(0)
			oracleCompare(t, e, joinSrc, base, "out/2")
		})
	}
}

func TestSimultaneousInsertions(t *testing.T) {
	// All tuples injected at the same instant at different nodes
	// (Theorem 1's "possibly simultaneous" case).
	e, nw := buildGrid(t, 6, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 3, MaxSkew: 6})
	var base []eval.Tuple
	for i := 0; i < 8; i++ {
		tup := eval.NewTuple("ra", ast.Int64(int64(i%4)), ast.Int64(int64(i)))
		tup2 := eval.NewTuple("rb", ast.Int64(int64(i)), ast.Int64(int64(i)))
		base = append(base, tup, tup2)
		e.InjectAt(0, nsim.NodeID(i), tup)
		e.InjectAt(0, nsim.NodeID(nw.Len()-1-i), tup2)
	}
	nw.Run(0)
	oracleCompare(t, e, joinSrc, base, "out/2")
}

const uncovSrc = `
.base veh/3.
cov(L, T) :- veh(enemy, L, T), veh(friendly, L2, T), dist(L, L2) <= 5.
uncov(L, T) :- NOT cov(L, T), veh(enemy, L, T).
.query uncov/2.
`

func vehT(kind string, x, y, ts int64) eval.Tuple {
	return eval.NewTuple("veh", ast.Symbol(kind),
		ast.Compound("loc", ast.Int64(x), ast.Int64(y)), ast.Int64(ts))
}

func TestNegationUncovered(t *testing.T) {
	e, nw := buildGrid(t, 6, uncovSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 4})
	base := []eval.Tuple{
		vehT("enemy", 0, 0, 1),
		vehT("friendly", 3, 4, 1), // covers the first enemy
		vehT("enemy", 50, 50, 1),  // uncovered
	}
	for i, b := range base {
		e.InjectAt(nsim.Time(i*4), nsim.NodeID(i*11%nw.Len()), b)
	}
	nw.Run(0)
	oracleCompare(t, e, uncovSrc, base, "cov/2", "uncov/2")
	// The uncovered alert is for the far enemy.
	uncov := e.Derived("uncov/2")
	if len(uncov) != 1 || !uncov[0].Args[0].Equal(ast.Compound("loc", ast.Int64(50), ast.Int64(50))) {
		t.Errorf("uncov = %v", uncov)
	}
}

func TestNegationRetractionOnLateCover(t *testing.T) {
	// Enemy first (uncov derived), friendly arrives much later: the
	// cov insertion must retract uncov (Section IV-B).
	e, nw := buildGrid(t, 6, uncovSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 5})
	enemy := vehT("enemy", 0, 0, 1)
	friendly := vehT("friendly", 3, 4, 1)
	e.InjectAt(0, 3, enemy)
	e.InjectAt(4000, 30, friendly)
	nw.Run(0)
	oracleCompare(t, e, uncovSrc, []eval.Tuple{enemy, friendly}, "cov/2", "uncov/2")
	if n := len(e.Derived("uncov/2")); n != 0 {
		t.Errorf("uncov should be retracted, have %d", n)
	}
	// The result log must show the insert followed by the delete.
	var events []string
	for _, ev := range e.ResultLog {
		events = append(events, fmt.Sprintf("%v/%v", ev.Tuple.Name(), ev.Insert))
	}
	if len(e.ResultLog) != 2 || !e.ResultLog[0].Insert || e.ResultLog[1].Insert {
		t.Errorf("result log = %v", events)
	}
}

func TestDeletionFromPositiveStream(t *testing.T) {
	e, nw := buildGrid(t, 5, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 6})
	ra := eval.NewTuple("ra", ast.Int64(1), ast.Int64(2))
	rb1 := eval.NewTuple("rb", ast.Int64(2), ast.Int64(3))
	rb2 := eval.NewTuple("rb", ast.Int64(2), ast.Int64(4))
	e.InjectAt(0, 2, ra)
	e.InjectAt(5, 9, rb1)
	e.InjectAt(9, 17, rb2)
	e.InjectDeleteAt(5000, 9, rb1)
	nw.Run(0)
	oracleCompare(t, e, joinSrc, []eval.Tuple{ra, rb2}, "out/2")
	out := e.Derived("out/2")
	if len(out) != 1 || out[0].Args[1].Int != 4 {
		t.Errorf("out = %v", out)
	}
}

func TestDeletionFromNegatedStreamReinstates(t *testing.T) {
	e, nw := buildGrid(t, 6, uncovSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 7})
	enemy := vehT("enemy", 0, 0, 1)
	friendly := vehT("friendly", 3, 4, 1)
	e.InjectAt(0, 3, enemy)
	e.InjectAt(0, 30, friendly)
	// After everything settles, the friendly vehicle leaves.
	e.InjectDeleteAt(8000, 30, friendly)
	nw.Run(0)
	oracleCompare(t, e, uncovSrc, []eval.Tuple{enemy}, "cov/2", "uncov/2")
	if n := len(e.Derived("uncov/2")); n != 1 {
		t.Errorf("uncov should be reinstated, have %d", n)
	}
}

const threeWaySrc = `
.base ra/2.
.base rb/2.
.base rc/2.
out3(X, W) :- ra(X, Y), rb(Y, Z), rc(Z, W).
`

func TestThreeStreamJoinOnePass(t *testing.T) {
	e, nw := buildGrid(t, 6, threeWaySrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 8})
	var base []eval.Tuple
	for i := int64(0); i < 3; i++ {
		a := eval.NewTuple("ra", ast.Int64(i), ast.Int64(i+1))
		b := eval.NewTuple("rb", ast.Int64(i+1), ast.Int64(i+2))
		c := eval.NewTuple("rc", ast.Int64(i+2), ast.Int64(i+3))
		base = append(base, a, b, c)
		e.InjectAt(nsim.Time(i*7), nsim.NodeID(int(i*3)%nw.Len()), a)
		e.InjectAt(nsim.Time(i*7+2), nsim.NodeID(int(i*5+7)%nw.Len()), b)
		e.InjectAt(nsim.Time(i*7+4), nsim.NodeID(int(i*9+20)%nw.Len()), c)
	}
	nw.Run(0)
	oracleCompare(t, e, threeWaySrc, base, "out3/2")
	if len(e.Derived("out3/2")) != 3 {
		t.Errorf("out3 = %v", e.Derived("out3/2"))
	}
}

func TestThreeStreamJoinMultiPass(t *testing.T) {
	e, nw := buildGrid(t, 6, threeWaySrc, Config{Scheme: gpa.Perpendicular, MultiPass: true}, nsim.Config{Seed: 9})
	var base []eval.Tuple
	for i := int64(0); i < 3; i++ {
		a := eval.NewTuple("ra", ast.Int64(i), ast.Int64(i+1))
		b := eval.NewTuple("rb", ast.Int64(i+1), ast.Int64(i+2))
		c := eval.NewTuple("rc", ast.Int64(i+2), ast.Int64(i+3))
		base = append(base, a, b, c)
		e.InjectAt(nsim.Time(i*7), nsim.NodeID(int(i*3)%nw.Len()), a)
		e.InjectAt(nsim.Time(i*7+2), nsim.NodeID(int(i*5+7)%nw.Len()), b)
		e.InjectAt(nsim.Time(i*7+4), nsim.NodeID(int(i*9+20)%nw.Len()), c)
	}
	nw.Run(0)
	oracleCompare(t, e, threeWaySrc, base, "out3/2")
}

// The logicJ shortest-path-tree program with node placements (Section V).
const logicJSrc = `
.base g/2.
.store g/2 at 0 hops 1.
.store j/2 at 0 hops 1.
.store jp/2 at 0.
jp(Y, D1) :- j(Y, Dp), D1 = D + 1, D1 > Dp, j(X, D), g(X, Y).
j(Y, D1) :- g(X, Y), j(X, D), D1 = D + 1, NOT jp(Y, D1).
.query j/2.
`

// injectGridEdges injects g facts for the grid adjacency at each node.
func injectGridEdges(e *Engine, nw *nsim.Network) []eval.Tuple {
	var base []eval.Tuple
	for _, n := range nw.Nodes() {
		for _, nb := range n.Neighbors() {
			g := eval.NewTuple("g",
				ast.Symbol(fmt.Sprintf("n%d", n.ID)),
				ast.Symbol(fmt.Sprintf("n%d", nb)))
			base = append(base, g)
			e.InjectAt(0, n.ID, g)
		}
	}
	return base
}

func TestLogicJShortestPathTreeDistributed(t *testing.T) {
	m := 4
	nw := topo.Grid(m, nsim.Config{Seed: 10})
	prog := mustProg(t, logicJSrc+"\nj(n0, 0).\n")
	e, err := Deploy(nw, prog, Config{}, nil, nil, false) // seeds the root fact j(n0, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := injectGridEdges(e, nw)
	nw.Run(0)

	src := logicJSrc + "\nj(n0, 0).\n"
	oracleCompare(t, e, src, base, "j/2")

	// BFS depths on the grid from corner (0,0): depth = p + q.
	j := e.Derived("j/2")
	if len(j) != m*m {
		t.Fatalf("j has %d tuples, want %d: %v", len(j), m*m, j)
	}
	for _, tup := range j {
		var id int
		fmt.Sscanf(tup.Args[0].Str, "n%d", &id)
		p, q := topo.GridCoords(m, nsim.NodeID(id))
		if tup.Args[1].Int != int64(p+q) {
			t.Errorf("j(%s) = %d, want %d", tup.Args[0].Str, tup.Args[1].Int, p+q)
		}
	}
}

func TestLogicJTuplesLiveAtTheirNodes(t *testing.T) {
	// Section V: each node stores only tuples about itself and its
	// neighbors — the engine must place j(y, d) at node y.
	m := 3
	nw := topo.Grid(m, nsim.Config{Seed: 11})
	prog := mustProg(t, logicJSrc+"\nj(n0, 0).\n")
	e, err := Deploy(nw, prog, Config{}, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	injectGridEdges(e, nw)
	nw.Run(0)
	for _, n := range nw.Nodes() {
		for _, h := range e.rts[n.ID].homed {
			tup := h.t
			if tup.Pred != "j/2" && tup.Pred != "jp/2" {
				continue
			}
			var id int
			fmt.Sscanf(tup.Args[0].Str, "n%d", &id)
			if nsim.NodeID(id) != n.ID {
				t.Errorf("tuple %v homed at node %d", tup, n.ID)
			}
		}
	}
}

func TestSpatialConstraintStillCorrectWhenLocal(t *testing.T) {
	// With a spatial constraint, tuples generated within the radius must
	// still join; the savings experiment is E4.
	src := `
.base ra/2.
.base rb/2.
outs(X, Z) :- ra(X, Y), rb(Y, Z).
`
	e, nw := buildGrid(t, 8, src, Config{Scheme: gpa.Perpendicular, SpatialRadius: 3}, nsim.Config{Seed: 12})
	// Generate partners within 2 hops of each other.
	a := eval.NewTuple("ra", ast.Int64(1), ast.Int64(2))
	b := eval.NewTuple("rb", ast.Int64(2), ast.Int64(3))
	e.InjectAt(0, topo.GridID(8, 3, 3), a)
	e.InjectAt(2, topo.GridID(8, 4, 4), b)
	nw.Run(0)
	if len(e.Derived("outs/2")) != 1 {
		t.Errorf("outs = %v", e.Derived("outs/2"))
	}
	_ = nw
}

func TestEngineRejectsBadAggregates(t *testing.T) {
	nw := topo.Grid(3, nsim.Config{})
	// Two relational subgoals: beyond what TAG collection supports.
	_, err := New(nw, mustProg(t, `s(min<D>) :- p(D), q(D).`), Config{})
	if err == nil {
		t.Fatal("multi-stream aggregate should be rejected")
	}
	nw2 := topo.Grid(3, nsim.Config{})
	_, err = New(nw2, mustProg(t, `s(min<D>) :- p(X, D), NOT q(X).`), Config{})
	if err == nil {
		t.Fatal("negated aggregate body should be rejected")
	}
}

func TestEngineRejectsMixedPlacement(t *testing.T) {
	nw := topo.Grid(3, nsim.Config{})
	src := `
.store a/1 at 0.
out(X) :- a(X), b(X).
`
	_, err := New(nw, mustProg(t, src), Config{})
	if err == nil {
		t.Fatal("mixed placement should be rejected")
	}
}

func TestEngineRejectsNonHeadNegVarsInLocalMode(t *testing.T) {
	nw := topo.Grid(3, nsim.Config{})
	src := `
.store a/2 at 0.
.store b/2 at 0.
.store c/1 at 0.
c(X) :- a(X, Y), NOT b(X, Y).
`
	// Y occurs in the negation but not in the head c(X).
	_, err := New(nw, mustProg(t, src), Config{})
	if err == nil {
		t.Fatal("non-head negation variables in local mode should be rejected")
	}
}

func TestWindowExpiryPreventsJoin(t *testing.T) {
	src := `
.base ra/2.
.base rb/2.
.window ra/2 50.
.window rb/2 50.
outw(X, Z) :- ra(X, Y), rb(Y, Z).
`
	e, nw := buildGrid(t, 5, src, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 13})
	a := eval.NewTuple("ra", ast.Int64(1), ast.Int64(2))
	b := eval.NewTuple("rb", ast.Int64(2), ast.Int64(3))
	e.InjectAt(0, 2, a)
	e.InjectAt(5000, 20, b) // far outside ra's window
	nw.Run(0)
	if n := len(e.Derived("outw/2")); n != 0 {
		t.Errorf("expired tuples joined: %v", e.Derived("outw/2"))
	}
}

func TestWindowedJoinWithinRange(t *testing.T) {
	src := `
.base ra/2.
.base rb/2.
.window ra/2 5000.
.window rb/2 5000.
outw(X, Z) :- ra(X, Y), rb(Y, Z).
`
	e, nw := buildGrid(t, 5, src, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 14})
	a := eval.NewTuple("ra", ast.Int64(1), ast.Int64(2))
	b := eval.NewTuple("rb", ast.Int64(2), ast.Int64(3))
	e.InjectAt(0, 2, a)
	e.InjectAt(100, 20, b)
	nw.Run(0)
	if n := len(e.Derived("outw/2")); n != 1 {
		t.Errorf("in-window join missing: %v", e.Derived("outw/2"))
	}
}

func TestRecursiveTransitiveClosureDistributed(t *testing.T) {
	src := `
.base edge/2.
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`
	e, nw := buildGrid(t, 5, src, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 15})
	var base []eval.Tuple
	for i := int64(0); i < 4; i++ {
		tup := eval.NewTuple("edge", ast.Int64(i), ast.Int64(i+1))
		base = append(base, tup)
		e.InjectAt(nsim.Time(i*4), nsim.NodeID(i*5), tup)
	}
	nw.Run(0)
	oracleCompare(t, e, src, base, "path/2")
	if n := len(e.Derived("path/2")); n != 10 {
		t.Errorf("path count = %d, want 10", n)
	}
}

func TestFunctionSymbolsInDistributedJoin(t *testing.T) {
	// Function symbols: join conditions evaluated via term matching only
	// (Section III-A); lists flow through PA untouched.
	src := `
.base obs/1.
pairlist(l(A, B)) :- obs(A), obs(B), A < B.
`
	e, nw := buildGrid(t, 5, src, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 16})
	var base []eval.Tuple
	for i := int64(0); i < 3; i++ {
		tup := eval.NewTuple("obs", ast.Int64(i))
		base = append(base, tup)
		e.InjectAt(nsim.Time(i*4), nsim.NodeID(i*7+2), tup)
	}
	nw.Run(0)
	oracleCompare(t, e, src, base, "pairlist/1")
	if n := len(e.Derived("pairlist/1")); n != 3 {
		t.Errorf("pairlist = %v", e.Derived("pairlist/1"))
	}
}

func TestMessageCountsAccountedByKind(t *testing.T) {
	e, nw := buildGrid(t, 5, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 17})
	e.InjectAt(0, 7, eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)))
	e.InjectAt(3, 18, eval.NewTuple("rb", ast.Int64(2), ast.Int64(3)))
	nw.Run(0)
	if nw.KindCounts()[kindStore] == 0 {
		t.Error("no storage messages accounted")
	}
	if nw.KindCounts()[kindJoin] == 0 {
		t.Error("no join messages accounted")
	}
	// Result messages may be zero when a result's home happens to be the
	// completing node itself; store+join traffic must always exist.
	if nw.TotalBytes == 0 {
		t.Error("no bytes accounted")
	}
}

func TestPABeatsCentralizedOnHotspot(t *testing.T) {
	// E2's claim in miniature: the max per-node load under PA stays well
	// below the centralized server's.
	run := func(scheme gpa.Scheme) int64 {
		e, nw := buildGrid(t, 8, joinSrc, Config{Scheme: scheme, Server: 0}, nsim.Config{Seed: 18})
		k := int64(0)
		for i := 0; i < 24; i++ {
			k++
			e.InjectAt(nsim.Time(i*10), nsim.NodeID((i*13)%nw.Len()),
				eval.NewTuple("ra", ast.Int64(k), ast.Int64(k)))
			e.InjectAt(nsim.Time(i*10+5), nsim.NodeID((i*17+3)%nw.Len()),
				eval.NewTuple("rb", ast.Int64(k), ast.Int64(k)))
		}
		nw.Run(0)
		return nw.MaxNodeLoad()
	}
	pa := run(gpa.Perpendicular)
	central := run(gpa.Centralized)
	if pa >= central {
		t.Errorf("PA hotspot %d should be below centralized %d", pa, central)
	}
}
