package eval

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/parser"
)

func mustProg(t testing.TB, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func mustEval(t testing.TB, src string, base []Tuple) *Database {
	t.Helper()
	ev, err := New(mustProg(t, src), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	db, err := ev.Run(base)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return db
}

func edge(a, b string) Tuple {
	return NewTuple("edge", ast.Symbol(a), ast.Symbol(b))
}

func TestTransitiveClosure(t *testing.T) {
	src := `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`
	base := []Tuple{edge("a", "b"), edge("b", "c"), edge("c", "d")}
	db := mustEval(t, src, base)
	if n := db.Count("path/2"); n != 6 {
		t.Errorf("path count = %d, want 6: %v", n, db.Tuples("path/2"))
	}
	if !db.Contains(NewTuple("path", ast.Symbol("a"), ast.Symbol("d"))) {
		t.Error("missing path(a, d)")
	}
}

func TestTransitiveClosureWithCycle(t *testing.T) {
	src := `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`
	base := []Tuple{edge("a", "b"), edge("b", "a")}
	db := mustEval(t, src, base)
	// {a,b} x {a,b} = 4 paths.
	if n := db.Count("path/2"); n != 4 {
		t.Errorf("path count = %d, want 4", n)
	}
}

func TestNegationUncoveredVehicles(t *testing.T) {
	src := `
cov(L, T) :- veh(enemy, L, T), veh(friendly, L2, T), dist(L, L2) <= 5.
uncov(L, T) :- NOT cov(L, T), veh(enemy, L, T).
`
	loc := func(x, y int64) ast.Term {
		return ast.Compound("loc", ast.Int64(x), ast.Int64(y))
	}
	base := []Tuple{
		NewTuple("veh", ast.Symbol("enemy"), loc(0, 0), ast.Int64(1)),
		NewTuple("veh", ast.Symbol("friendly"), loc(3, 4), ast.Int64(1)), // dist 5: covers
		NewTuple("veh", ast.Symbol("enemy"), loc(50, 50), ast.Int64(1)),  // uncovered
	}
	db := mustEval(t, src, base)
	if n := db.Count("cov/2"); n != 1 {
		t.Errorf("cov = %v", db.Tuples("cov/2"))
	}
	uncov := db.Tuples("uncov/2")
	if len(uncov) != 1 || !uncov[0].Args[0].Equal(loc(50, 50)) {
		t.Errorf("uncov = %v", uncov)
	}
}

func TestFactsInProgram(t *testing.T) {
	src := `
parent(a, b).
parent(b, c).
anc(X, Y) :- parent(X, Y).
anc(X, Z) :- anc(X, Y), parent(Y, Z).
`
	db := mustEval(t, src, nil)
	if n := db.Count("anc/2"); n != 3 {
		t.Errorf("anc = %v", db.Tuples("anc/2"))
	}
}

// logicH on a small diamond graph: a-b, a-c, b-d, c-d, d-e.
// The shortest-path tree must assign each node its BFS depth.
func TestLogicHShortestPathTree(t *testing.T) {
	src := `
h(a, a, 0).
h(a, X, 1) :- g(a, X).
hp(Y, D1) :- h(_, Y, Dp), D1 = D + 1, D1 > Dp, h(_, X, D), g(X, Y).
h(X, Y, D1) :- g(X, Y), h(_, X, D), D1 = D + 1, NOT hp(Y, D1).
`
	g := func(a, b string) Tuple { return NewTuple("g", ast.Symbol(a), ast.Symbol(b)) }
	// Undirected edges represented both ways.
	var base []Tuple
	for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}, {"d", "e"}} {
		base = append(base, g(e[0], e[1]), g(e[1], e[0]))
	}
	db := mustEval(t, src, base)

	depth := map[string]int64{}
	for _, h := range db.Tuples("h/3") {
		node := h.Args[1].Str
		d := h.Args[2].Int
		if prev, ok := depth[node]; !ok || d < prev {
			depth[node] = d
		}
	}
	want := map[string]int64{"a": 0, "b": 1, "c": 1, "d": 2, "e": 3}
	for n, d := range want {
		if depth[n] != d {
			t.Errorf("depth(%s) = %d, want %d", n, depth[n], d)
		}
	}
	// Crucially, XY-stratified negation must prevent non-shortest edges:
	// no h(_, b, 2) etc. (b reachable at depth 1 must not re-enter at 3).
	for _, h := range db.Tuples("h/3") {
		node := h.Args[1].Str
		if h.Args[2].Int != want[node] {
			t.Errorf("non-shortest tree edge: %v (want depth %d)", h, want[node])
		}
	}
}

func TestLogicJShortestPathTree(t *testing.T) {
	src := `
j(a, 0).
jp(Y, D1) :- j(Y, Dp), D1 = D + 1, D1 > Dp, j(X, D), g(X, Y).
j(Y, D1) :- g(X, Y), j(X, D), D1 = D + 1, NOT jp(Y, D1).
`
	g := func(a, b string) Tuple { return NewTuple("g", ast.Symbol(a), ast.Symbol(b)) }
	var base []Tuple
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}, {"c", "d"}} {
		base = append(base, g(e[0], e[1]), g(e[1], e[0]))
	}
	db := mustEval(t, src, base)
	want := map[string]int64{"a": 0, "b": 1, "c": 1, "d": 2}
	js := db.Tuples("j/2")
	if len(js) != len(want) {
		t.Errorf("j = %v", js)
	}
	for _, j := range js {
		if j.Args[1].Int != want[j.Args[0].Str] {
			t.Errorf("j(%s) = %d, want %d", j.Args[0].Str, j.Args[1].Int, want[j.Args[0].Str])
		}
	}
}

func TestTrajectorySynthesis(t *testing.T) {
	// Example 2 (adapted): reports chained by close/2 into trajectories.
	src := `
notStart(R2) :- report(R1), report(R2), close(R1, R2).
notLast(R1) :- report(R1), report(R2), close(R1, R2).
traj([R2, R1]) :- report(R1), report(R2), close(R1, R2), NOT notStart(R1).
traj([R2 | L]) :- traj(L), L = [R1 | _], report(R2), close(R1, R2).
complete(L) :- traj(L), L = [R | _], NOT notLast(R).
`
	rep := func(x, y, ts int64) ast.Term {
		return ast.Compound("r", ast.Int64(x), ast.Int64(y), ast.Int64(ts))
	}
	base := []Tuple{
		NewTuple("report", rep(0, 0, 1)),
		NewTuple("report", rep(1, 1, 2)),
		NewTuple("report", rep(2, 2, 3)),
	}
	db := mustEval(t, src, base)
	completes := db.Tuples("complete/1")
	if len(completes) != 1 {
		t.Fatalf("complete = %v", completes)
	}
	elems, ok := completes[0].Args[0].ListElems()
	if !ok || len(elems) != 3 {
		t.Fatalf("trajectory = %v", completes[0])
	}
	// Reports are consed in front: newest first.
	if elems[0].Args[2].Int != 3 || elems[2].Args[2].Int != 1 {
		t.Errorf("trajectory order wrong: %v", completes[0])
	}
}

func TestAggregates(t *testing.T) {
	src := `
short(X, min<D>) :- path(X, D).
far(X, max<D>) :- path(X, D).
total(sum<D>) :- path(X, D).
howmany(count<X>) :- path(X, D).
mean(avg<D>) :- path(X, D).
`
	base := []Tuple{
		NewTuple("path", ast.Symbol("b"), ast.Int64(3)),
		NewTuple("path", ast.Symbol("b"), ast.Int64(1)),
		NewTuple("path", ast.Symbol("c"), ast.Int64(4)),
	}
	db := mustEval(t, src, base)
	if !db.Contains(NewTuple("short", ast.Symbol("b"), ast.Int64(1))) {
		t.Errorf("short = %v", db.Tuples("short/2"))
	}
	if !db.Contains(NewTuple("far", ast.Symbol("b"), ast.Int64(3))) {
		t.Errorf("far = %v", db.Tuples("far/2"))
	}
	// multiset sum over all solutions: 3+1+4 = 8.
	if !db.Contains(NewTuple("total", ast.Int64(8))) {
		t.Errorf("total = %v", db.Tuples("total/1"))
	}
	// count of solutions (multiset semantics, matching the TAG
	// in-network collection): 3.
	if !db.Contains(NewTuple("howmany", ast.Int64(3))) {
		t.Errorf("howmany = %v", db.Tuples("howmany/1"))
	}
	mean := db.Tuples("mean/1")
	if len(mean) != 1 || mean[0].Args[0].Float != 8.0/3.0 {
		t.Errorf("mean = %v", mean)
	}
}

func TestArithmeticInHead(t *testing.T) {
	src := `double(X, Y) :- n(X), Y = X * 2.`
	db := mustEval(t, src, []Tuple{NewTuple("n", ast.Int64(21))})
	if !db.Contains(NewTuple("double", ast.Int64(21), ast.Int64(42))) {
		t.Errorf("double = %v", db.Tuples("double/2"))
	}
}

func TestDeferredBuiltinOrdering(t *testing.T) {
	// D1 = D + 1 appears before D is bound (as in the paper's logicH).
	src := `p(D1) :- D1 = D + 1, q(D), D1 < 10.`
	db := mustEval(t, src, []Tuple{NewTuple("q", ast.Int64(3)), NewTuple("q", ast.Int64(99))})
	tuples := db.Tuples("p/1")
	if len(tuples) != 1 || tuples[0].Args[0].Int != 4 {
		t.Errorf("p = %v", tuples)
	}
}

func TestSelfJoin(t *testing.T) {
	src := `pair(X, Y) :- n(X), n(Y), X < Y.`
	db := mustEval(t, src, []Tuple{
		NewTuple("n", ast.Int64(1)), NewTuple("n", ast.Int64(2)), NewTuple("n", ast.Int64(3)),
	})
	if n := db.Count("pair/2"); n != 3 {
		t.Errorf("pair = %v", db.Tuples("pair/2"))
	}
}

func TestNonTerminationGuard(t *testing.T) {
	// Unbounded list growth must hit the term-depth guard, not hang.
	src := `grow([X | L]) :- grow(L), seed(X).
grow([X]) :- seed(X).`
	ev, err := New(mustProg(t, src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ev.Run([]Tuple{NewTuple("seed", ast.Int64(1))})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("depth bound %d", maxTermDepth)) {
		t.Fatalf("non-terminating program should hit the depth bound, got %v", err)
	}
}

func TestDatabaseOperations(t *testing.T) {
	db := NewDatabase()
	tup := NewTuple("p", ast.Int64(1))
	if !db.Insert(tup) {
		t.Error("first insert should be new")
	}
	if db.Insert(tup) {
		t.Error("duplicate insert should report false")
	}
	if !db.Contains(tup) {
		t.Error("contains after insert")
	}
	if db.TotalSize() != 1 {
		t.Error("size")
	}
	if got := db.Predicates(); len(got) != 1 || got[0] != "p/1" {
		t.Errorf("predicates = %v", got)
	}
	if !db.Delete(tup) {
		t.Error("delete should succeed")
	}
	if db.Delete(tup) {
		t.Error("double delete should fail")
	}
	if got := db.Predicates(); len(got) != 0 {
		t.Errorf("predicates after delete = %v", got)
	}
}

func TestTupleStringAndKey(t *testing.T) {
	tup := NewTuple("veh", ast.Symbol("enemy"), ast.Int64(3))
	if got := tup.String(); got != "veh(enemy, 3)" {
		t.Errorf("String = %q", got)
	}
	if tup.Name() != "veh" || tup.Pred != "veh/2" {
		t.Errorf("name/pred = %q/%q", tup.Name(), tup.Pred)
	}
	other := NewTuple("veh", ast.Symbol("enemy"), ast.Int64(4))
	if tup.Key() == other.Key() {
		t.Error("distinct tuples share a key")
	}
}

func TestMultipleRulesSameHeadUnion(t *testing.T) {
	src := `
r(X) :- p(X).
r(X) :- q(X).
`
	db := mustEval(t, src, []Tuple{NewTuple("p", ast.Int64(1)), NewTuple("q", ast.Int64(2)), NewTuple("q", ast.Int64(1))})
	if n := db.Count("r/1"); n != 2 {
		t.Errorf("r = %v", db.Tuples("r/1"))
	}
}

func TestJoinOpsCounted(t *testing.T) {
	ev, err := New(mustProg(t, `p(X, Y) :- a(X), b(Y).`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ev.Run([]Tuple{
		NewTuple("a", ast.Int64(1)), NewTuple("a", ast.Int64(2)),
		NewTuple("b", ast.Int64(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev.JoinOps == 0 {
		t.Error("JoinOps not counted")
	}
}

func ExampleEvaluator_Run() {
	prog, _ := parser.Parse(`
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`)
	ev, _ := New(prog, Options{})
	db, _ := ev.Run([]Tuple{edge("a", "b"), edge("b", "c")})
	for _, t := range db.Tuples("path/2") {
		fmt.Println(t)
	}
	// Output:
	// path(a, b)
	// path(a, c)
	// path(b, c)
}

// Rule bodies longer than 64 literals are refused up front by the analysis
// (the solver's done-mask is a uint64) for the evaluator and the
// maintainer alike; 64 still evaluate.
func TestBodyLiteralLimit(t *testing.T) {
	body := func(n int) string { return "q(X) :- p(X)" + strings.Repeat(", X >= 0", n-1) + "." }
	p := func(v int64) Tuple { return NewTuple("p", ast.Int64(v)) }

	db := mustEval(t, body(64), []Tuple{p(-1), p(1)})
	if got := db.Tuples("q/1"); len(got) != 1 || !got[0].Equal(NewTuple("q", ast.Int64(1))) {
		t.Errorf("64 literals: q = %v, want [q(1)]", got)
	}
	m := newMaint(t, body(64), SetOfDerivations)
	m.Insert(p(-1))
	if ch, err := m.Insert(p(1)); err != nil || len(ch) != 1 || m.DB().Count("q/1") != 1 {
		t.Errorf("64 literals maintained: changes %v, err %v", ch, err)
	}

	const want = "analysis: rule 0 has 65 body literals (limit 64)"
	if _, err := New(mustProg(t, body(65)), Options{}); err == nil || err.Error() != want {
		t.Errorf("New: err = %v, want %q", err, want)
	}
	if _, err := NewMaintainer(mustProg(t, body(65)), Counting, Options{}); err == nil || err.Error() != want {
		t.Errorf("NewMaintainer: err = %v, want %q", err, want)
	}
}
