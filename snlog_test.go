package snlog

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestParseAndCheck(t *testing.T) {
	res, err := Check(`
.base veh/3.
cov(L, T) :- veh(enemy, L, T), veh(friendly, L2, T), dist(L, L2) <= 5.
uncov(L, T) :- NOT cov(L, T), veh(enemy, L, T).
`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stratified {
		t.Error("program should be stratified")
	}
}

func TestCheckRejectsUnsafe(t *testing.T) {
	if _, err := Check(`p(X) :- q(Y).`); err == nil {
		t.Error("unsafe program accepted")
	}
}

func TestEvalFacade(t *testing.T) {
	db, err := Eval(`
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`, []Tuple{
		NewTuple("edge", Sym("a"), Sym("b")),
		NewTuple("edge", Sym("b"), Sym("c")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Count("path/2") != 3 {
		t.Errorf("path = %v", db.Tuples("path/2"))
	}
}

func TestMagicRewriteFacade(t *testing.T) {
	out, ans, err := MagicRewrite(`
anc(X, Y) :- par(X, Y).
anc(X, Z) :- par(X, Y), anc(Y, Z).
`, "anc(a, X)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "m_anc_bf") {
		t.Errorf("rewritten program missing magic predicate:\n%s", out)
	}
	if ans != "ans_anc/2" {
		t.Errorf("answer pred = %s", ans)
	}
}

func TestDeployAlertOnGrid(t *testing.T) {
	c, err := Deploy(Grid(6), `
.base temp/2.
alert(N, T) :- temp(N, T), T > 90.
.query alert/2.
`, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	c.Inject(12, NewTuple("temp", Sym("n12"), Int(95)))
	c.Inject(20, NewTuple("temp", Sym("n20"), Int(50)))
	c.Run()
	alerts := c.Results("alert/2")
	if len(alerts) != 1 || alerts[0].Args[1].Int != 95 {
		t.Errorf("alerts = %v", alerts)
	}
	st := c.Stats()
	if st.Messages == 0 || st.Bytes == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// A network that cannot work is refused at Deploy instead of deploying
// and then rejecting every insert (no nodes) or silently deriving
// nothing (every frame lost).
func TestDeployRefusesUnusableNetwork(t *testing.T) {
	const src = ".base temp/2.\nalert(N, T) :- temp(N, T), T > 90.\n.query alert/2.\n"
	cases := []struct {
		name string
		topo Topology
		loss float64
		ok   bool
	}{
		{"grid 0", Grid(0), 0, false},
		{"grid -3", Grid(-3), 0, false},
		{"loss 1.0", Grid(4), 1.0, false},
		{"loss 1.5", Grid(4), 1.5, false},
		{"loss -0.5", Grid(4), -0.5, false},
		{"loss 0", Grid(4), 0, true},
		{"loss 0.3", Grid(4), 0.3, true},
	}
	for _, tc := range cases {
		c, err := Deploy(tc.topo, src, WithSeed(1), WithLoss(tc.loss), WithRetries(3))
		if !tc.ok {
			if !errors.Is(err, ErrBadNetwork) {
				t.Errorf("%s: Deploy err = %v, want errors.Is(ErrBadNetwork)", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Deploy: %v", tc.name, err)
			continue
		}
		c.Inject(5, NewTuple("temp", Sym("n5"), Int(95)))
		c.Run()
		if got := c.Results("alert/2"); len(got) != 1 {
			t.Errorf("%s: alerts = %v, want one", tc.name, got)
		}
	}
}

// A server must name a node of the network, whatever the scheme: an
// out-of-range server is refused with ErrBadNode instead of panicking.
func TestDeployRefusesServerOutsideNetwork(t *testing.T) {
	const src = ".base ra/2.\n.base rb/2.\nout(X, Z) :- ra(X, Y), rb(Y, Z).\n.query out/2.\n"
	for _, scheme := range []Scheme{Centralized, Perpendicular} {
		for _, server := range []int{99, -1, 9} {
			if _, err := Deploy(Grid(3), src, WithScheme(scheme), WithServer(server)); !errors.Is(err, ErrBadNode) {
				t.Errorf("%v server %d: Deploy err = %v, want errors.Is(ErrBadNode)", scheme, server, err)
			}
		}
		if _, err := Deploy(Grid(3), src, WithScheme(scheme), WithServer(8)); err != nil {
			t.Errorf("%v server 8: Deploy: %v", scheme, err)
		}
	}
}

func TestDeployOnRandomTopology(t *testing.T) {
	c, err := Deploy(Random(40, 8, 2.6), `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
`, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	c.InjectAt(0, 3, NewTuple("ra", Int(1), Int(2)))
	c.InjectAt(5, 29, NewTuple("rb", Int(2), Int(3)))
	c.Run()
	if n := len(c.Results("out/2")); n != 1 {
		t.Errorf("out = %v", c.Results("out/2"))
	}
}

func TestDeployDeletion(t *testing.T) {
	c, err := Deploy(Grid(5), `
.base s/1.
d(X) :- s(X).
`, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	tup := NewTuple("s", Int(7))
	c.InjectAt(0, 4, tup)
	c.DeleteAt(4000, 4, tup)
	c.Run()
	if n := len(c.Results("d/1")); n != 0 {
		t.Errorf("d should be retracted: %v", c.Results("d/1"))
	}
}

func TestDeploySPTViaAPI(t *testing.T) {
	m := 4
	src := `
.base g/2.
.store g/2 at 0 hops 1.
.store j/2 at 0 hops 1.
.store jp/2 at 0.
j(n0, 0).
jp(Y, D1) :- j(Y, Dp), D1 = D + 1, D1 > Dp, j(X, D), g(X, Y).
j(Y, D1) :- g(X, Y), j(X, D), D1 = D + 1, NOT jp(Y, D1).
.query j/2.
`
	c, err := Deploy(Grid(m), src, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	// Edges are known locally at each node.
	for _, n := range c.Network.Nodes() {
		for _, nb := range n.Neighbors() {
			c.InjectAt(0, int(n.ID), NewTuple("g", NodeSym(int(n.ID)), NodeSym(int(nb))))
		}
	}
	c.Run()
	j := c.Results("j/2")
	if len(j) != m*m {
		t.Fatalf("j = %v", j)
	}
	for _, tup := range j {
		var id int
		fmt.Sscanf(tup.Args[0].Str, "n%d", &id)
		p, q := id%m, id/m
		if tup.Args[1].Int != int64(p+q) {
			t.Errorf("depth(%s) = %d, want %d", tup.Args[0].Str, tup.Args[1].Int, p+q)
		}
	}
}

func TestStatsByKind(t *testing.T) {
	c, err := Deploy(Grid(5), `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
`, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	c.InjectAt(0, 2, NewTuple("ra", Int(1), Int(2)))
	c.InjectAt(5, 17, NewTuple("rb", Int(2), Int(3)))
	c.Run()
	st := c.Stats()
	if st.ByKind["store"] == 0 || st.ByKind["join"] == 0 {
		t.Errorf("by-kind stats = %v", st.ByKind)
	}
	if st.MaxMemory == 0 {
		t.Error("memory stats missing")
	}
}

func TestGridIDHelper(t *testing.T) {
	if GridID(5, 2, 3) != 17 {
		t.Errorf("GridID = %d", GridID(5, 2, 3))
	}
}

func TestRunUntilPartialProgress(t *testing.T) {
	c, err := Deploy(Grid(5), `
.base s/1.
d(X) :- s(X).
`, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	c.InjectAt(0, 3, NewTuple("s", Int(1)))
	// Before the storage delay elapses, nothing is derived.
	c.RunUntil(5)
	if len(c.Results("d/1")) != 0 {
		t.Error("derived too early")
	}
	c.Run()
	if len(c.Results("d/1")) != 1 {
		t.Error("not derived after full run")
	}
}

// A RunUntil limit behind the cluster's clock leaves the clock where it
// is: virtual time never runs backwards.
func TestClusterRunUntilNeverRewindsClock(t *testing.T) {
	c, err := Deploy(Grid(5), `
.base s/1.
d(X) :- s(X).
`, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	c.InjectAt(0, 3, NewTuple("s", Int(1)))
	c.InjectAt(1000, 7, NewTuple("s", Int(2)))
	if got := c.RunUntil(20); got != 20 {
		t.Fatalf("RunUntil(20) = %d, want 20", got)
	}
	if got := c.RunUntil(5); got != 20 || c.Network.Now() != 20 {
		t.Fatalf("RunUntil(5) after reaching 20 = %d (clock %d), want 20", got, c.Network.Now())
	}
	if got := c.Run(); got < 1000 || len(c.Results("d/1")) != 2 {
		t.Errorf("run ended at %d with %d d/1 tuples, want ≥ 1000 and 2", got, len(c.Results("d/1")))
	}
}

func TestMaintainerFacade(t *testing.T) {
	m, err := NewMaintainer(`
cov(L) :- veh(enemy, L), veh(friendly, L).
uncov(L) :- NOT cov(L), veh(enemy, L).
`, SetOfDerivations)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(NewTuple("veh", Sym("enemy"), Int(1))); err != nil {
		t.Fatal(err)
	}
	if m.DB().Count("uncov/1") != 1 {
		t.Errorf("uncov = %v", m.DB().Tuples("uncov/1"))
	}
	tree, err := m.Explain(NewTuple("uncov", Int(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Derivs) == 0 {
		t.Error("derived tuple should have children")
	}
	if _, err := NewMaintainer(`broken(`, Counting); err == nil {
		t.Error("parse error should surface")
	}
}

func TestFacadeErrorPaths(t *testing.T) {
	if _, err := Parse(`p(`); err == nil {
		t.Error("Parse should surface syntax errors")
	}
	if _, err := Eval(`p(X) :- q(Y).`, nil); err == nil {
		t.Error("Eval should surface unsafe programs")
	}
	if _, _, err := MagicRewrite(`anc(X,Y) :- par(X,Y).`, "not a literal ("); err == nil {
		t.Error("MagicRewrite should reject bad query literals")
	}
	if _, _, err := MagicRewrite(`anc(X,Y) :- par(X,Y).`, "par(a, X)"); err == nil {
		t.Error("MagicRewrite should reject base-predicate queries")
	}
	if _, err := Deploy(Grid(4), `p(`); err != nil {
		_ = err
	} else {
		t.Error("Deploy should surface parse errors")
	}
	if _, err := Deploy(Random(20, 100, 0.1), `d(X) :- s(X).`); err == nil {
		t.Error("Deploy should surface disconnected placements")
	}
}

func TestClusterAggregateFacade(t *testing.T) {
	c, err := Deploy(Grid(5), `
.base reading/2.
coldest(min<T>) :- reading(N, T).
`, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.InjectAt(int64(i*3), i*5, NewTuple("reading", NodeSym(i*5), Int(int64(50+i))))
	}
	if err := c.CollectAggregate(2000, "coldest/1", 0); err != nil {
		t.Fatal(err)
	}
	c.Run()
	got := c.AggregateResult("coldest/1")
	if len(got) != 1 || got[0].Args[0].Int != 50 {
		t.Errorf("coldest = %v", got)
	}
	if err := c.CollectAggregate(0, "missing/1", 0); err == nil {
		t.Error("unknown aggregate should error")
	}
}

func TestDeployWithProvenance(t *testing.T) {
	c, err := Deploy(Grid(5), `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
.query out/2.
`, WithSeed(7), WithProvenance())
	if err != nil {
		t.Fatal(err)
	}
	c.Inject(3, NewTuple("ra", Int(1), Int(2)))
	c.Inject(9, NewTuple("rb", Int(2), Int(3)))
	c.Run()
	if got := c.Results("out/2"); len(got) != 1 {
		t.Fatalf("results = %v", got)
	}

	tree, err := c.Explain("out", Int(1), Int(3))
	if err != nil {
		t.Fatal(err)
	}
	rendered := tree.String()
	for _, part := range []string{"out/2|i1,i3", "<- rule", "ra/2|i1,i2", "rb/2|i2,i3", "[base]"} {
		if !strings.Contains(rendered, part) {
			t.Errorf("explain render missing %q:\n%s", part, rendered)
		}
	}

	bl, err := c.Blame("out", Int(1), Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(bl.Steps) == 0 || !strings.Contains(bl.String(), "critical path") {
		t.Fatalf("blame = %+v", bl)
	}

	var dot, jsonl strings.Builder
	if err := c.WriteExplainDOT(&dot, "out", Int(1), Int(3)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "digraph explain") {
		t.Errorf("DOT output:\n%s", dot.String())
	}
	if err := c.WriteExplainJSONL(&jsonl, "out", Int(1), Int(3)); err != nil {
		t.Fatal(err)
	}
	// Root tuple, one derivation node, two base leaves.
	if n := strings.Count(strings.TrimSpace(jsonl.String()), "\n") + 1; n != 4 {
		t.Errorf("JSONL export has %d lines, want 4:\n%s", n, jsonl.String())
	}

	// The registry gauges report the captured graph.
	snap := c.Snapshot()
	if snap.Get("core.prov.live") == 0 || snap.Get("core.prov.captured") == 0 {
		t.Errorf("provenance gauges missing: live=%d captured=%d",
			snap.Get("core.prov.live"), snap.Get("core.prov.captured"))
	}
}

func TestExplainWithoutProvenanceErrors(t *testing.T) {
	c, err := Deploy(Grid(4), `
.base a/2.
d(X, Y) :- a(X, Y).
.query d/2.
`, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if _, err := c.Explain("d", Int(1), Int(2)); err == nil {
		t.Fatal("Explain without WithProvenance should error")
	}
}

// Cluster.Query and the re-exported validation sentinels: goals are
// validated on the same Engine.ParseGoal path the serving layer uses, so
// errors match with errors.Is at the facade too.
func TestClusterQueryFacade(t *testing.T) {
	c, err := Deploy(Grid(4), `
.base edge/2.
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
.query path/2.
`, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	c.Inject(0, NewTuple("edge", Sym("a"), Sym("b")))
	c.Inject(1, NewTuple("edge", Sym("b"), Sym("c")))
	c.Run()
	got, err := c.Query("path(a, X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("path(a, X) = %v", got)
	}
	if got, err := c.Query("path(a, c)"); err != nil || len(got) != 1 {
		t.Errorf("ground query = %v, %v", got, err)
	}
	cases := []struct {
		goal string
		want error
	}{
		{"edge(a, X)", ErrBasePredicate},
		{"path(X)", ErrArity},
		{"ghost(X)", ErrUnknownPredicate},
		{"path(X", ErrBadGoal},
	}
	for _, tc := range cases {
		if _, err := c.Query(tc.goal); !errors.Is(err, tc.want) {
			t.Errorf("Query(%q) = %v, want errors.Is(%v)", tc.goal, err, tc.want)
		}
	}
	// Injection sentinels at the facade.
	if err := c.Inject(0, NewTuple("path", Sym("a"), Sym("b"))); !errors.Is(err, ErrDerivedPredicate) {
		t.Errorf("Inject derived = %v", err)
	}
	if err := c.Inject(99, NewTuple("edge", Sym("a"), Sym("b"))); !errors.Is(err, ErrBadNode) {
		t.Errorf("Inject bad node = %v", err)
	}
}

// A rule body of 65 literals used to deploy and then spin forever in
// Run (the node runtime's uint64 done-mask cannot mark literal 64); it is
// now refused by the analysis. 64 literals deploy and derive what the
// centralized evaluator derives.
func TestDeployBodyLiteralLimit(t *testing.T) {
	src := func(n int) string {
		return ".base p/1.\nq(X) :- p(X)" + strings.Repeat(", X >= 0", n-1) + ".\n.query q/1.\n"
	}
	if _, err := Deploy(Grid(3), src(65), WithSeed(1)); err == nil || !strings.Contains(err.Error(), "analysis: rule 0 has 65 body literals (limit 64)") {
		t.Fatalf("Deploy with a 65-literal rule: err = %v", err)
	}

	c, err := Deploy(Grid(3), src(64), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	facts := []Tuple{NewTuple("p", Int(-3)), NewTuple("p", Int(3)), NewTuple("p", Int(7))}
	for i, f := range facts {
		c.Inject(i, f)
	}
	c.Run()
	db, err := Eval(src(64), facts)
	if err != nil {
		t.Fatal(err)
	}
	got, want := c.Results("q/1"), db.Tuples("q/1")
	if len(want) != 2 || len(got) != len(want) {
		t.Fatalf("q = %v, centralized %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("q[%d] = %v, centralized %v", i, got[i], want[i])
		}
	}
}

// A fact of a 0-ary predicate joins in the network as it does in the
// centralized evaluator. Its tuple has no argument slice, which the
// window store used to read as "deletion tombstone": the replica was
// stored but visible to no join, and top/1 came out empty.
func TestDeployNullaryBaseFact(t *testing.T) {
	const src = `
.base q/1.
.base alarm/0.
top(X) :- alarm, q(X).
.query top/1.
`
	c, err := Deploy(Grid(6), src, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	facts := []Tuple{NewTuple("alarm"), NewTuple("q", Int(1)), NewTuple("q", Int(2)), NewTuple("q", Int(3))}
	for i, f := range facts {
		if err := c.Inject(i*7, f); err != nil {
			t.Fatal(err)
		}
	}
	c.Run()
	db, err := Eval(src, facts)
	if err != nil {
		t.Fatal(err)
	}
	got, want := c.Results("top/1"), db.Tuples("top/1")
	if len(want) != 3 || len(got) != len(want) {
		t.Fatalf("top = %v, centralized %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("top[%d] = %v, centralized %v", i, got[i], want[i])
		}
	}
}

// min and max over a group that mixes numbers with other constants have
// one rule, agg.State's: numbers order by value and before everything
// else, the rest structurally. The centralized evaluator used to have a
// fold of its own that refused such a group when a number came first and
// ordered it structurally otherwise; now it and the in-network TAG
// collection run the same fold, in any arrival order.
func TestMixedTypeMinMaxOneRule(t *testing.T) {
	const src = `
.base obs/2.
lo(min<V>) :- obs(S, V).
hi(max<V>) :- obs(S, V).
`
	values := []Term{Int(3), Sym("abc"), Flt(1.5), Str("zz"), Int(7)}
	wantLo, wantHi := NewTuple("lo", Flt(1.5)), NewTuple("hi", Sym("abc"))
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {1, 3, 0, 2, 4}, {4, 3, 2, 1, 0}} {
		c, err := Deploy(Grid(5), src, WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		var facts []Tuple
		for at, i := range order {
			f := NewTuple("obs", NodeSym(i*6), values[i])
			facts = append(facts, f)
			if err := c.InjectAt(int64(at*3), i*6, f); err != nil {
				t.Fatal(err)
			}
		}
		db, err := Eval(src, facts)
		if err != nil {
			t.Fatalf("order %v: centralized: %v", order, err)
		}
		for _, pred := range []string{"lo/1", "hi/1"} {
			if err := c.CollectAggregate(2000, pred, 0); err != nil {
				t.Fatal(err)
			}
		}
		c.Run()
		for _, w := range []Tuple{wantLo, wantHi} {
			if got := db.Tuples(w.Pred); len(got) != 1 || !got[0].Equal(w) {
				t.Errorf("order %v: centralized %s = %v, want %v", order, w.Pred, got, w)
			}
			if got := c.AggregateResult(w.Pred); len(got) != 1 || !got[0].Equal(w) {
				t.Errorf("order %v: in-network %s = %v, want %v", order, w.Pred, got, w)
			}
		}
	}
}

// A negation checked at the head's home node (local-mode rules, same-
// stage XY negations) rebinds its variables by matching the settled head
// tuple, which cannot see through an evaluated argument: h(Y, D + 1)
// settles as h(n1, 2), and D is gone. Such a rule used to deploy and
// silently skip the negation — the cluster held five h tuples the
// centralized evaluator refuses. Now Deploy refuses the rule, naming the
// rewrite; the rewritten program, and a rule whose negated variables are
// all matchable beside an evaluated argument (which used to lose its
// negation the same way), derive what Eval derives.
func TestDeployFinalizeNegationNeedsMatchableHead(t *testing.T) {
	const decls = `
.base g/2.
.store g/2 at 0 hops 1.
.store j/2 at 0 hops 1.
.store blk/2 at 0.
.store blk1/2 at 0.
.store h/2 at 0.
j(n0, 0). j(n1, 1). j(n5, 1).
`
	const (
		refused   = "h(Y, D + 1) :- g(X, Y), j(X, D), NOT blk(Y, D).\n"
		rewritten = "blk1(Y, D1) :- blk(Y, D), D1 = D + 1.\nh(Y, D1) :- g(X, Y), j(X, D), D1 = D + 1, NOT blk1(Y, D1).\n"
		beside    = "h(Y, D + 1) :- g(X, Y), j(X, D), NOT blk(Y, 1).\n"
	)
	_, err := Deploy(Grid(4), decls+refused, WithSeed(1))
	if !errors.Is(err, ErrNegationNeedsHead) || !strings.Contains(err.Error(), "D1 = D + 1") {
		t.Fatalf("Deploy of %q: err = %v, want ErrNegationNeedsHead naming the rewrite", refused, err)
	}

	type op struct {
		at   int64
		node int
		t    Tuple
	}
	var ops []op
	for _, y := range []int{1, 2, 4} {
		for d := int64(0); d < 3; d++ {
			ops = append(ops, op{0, y, NewTuple("blk", NodeSym(y), Int(d))})
		}
	}
	for q := 0; q < 4; q++ {
		for p := 0; p < 4; p++ {
			for _, d := range [][2]int{{1, 0}, {0, 1}} {
				if np, nq := p+d[0], q+d[1]; np < 4 && nq < 4 {
					a, b := GridID(4, p, q), GridID(4, np, nq)
					ops = append(ops, op{50, a, NewTuple("g", NodeSym(a), NodeSym(b))}, op{50, b, NewTuple("g", NodeSym(b), NodeSym(a))})
				}
			}
		}
	}
	var facts []Tuple
	for _, o := range ops {
		facts = append(facts, o.t)
	}
	orig, err := Eval(decls+refused, facts)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{rewritten, beside} {
		c, err := Deploy(Grid(4), decls+src, WithSeed(1))
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		for _, o := range ops {
			if err := c.InjectAt(o.at, o.node, o.t); err != nil {
				t.Fatal(err)
			}
		}
		c.Run()
		db, err := Eval(decls+src, facts)
		if err != nil {
			t.Fatal(err)
		}
		got, want := c.Results("h/2"), db.Tuples("h/2")
		if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%q: cluster h = %v, centralized %v", src, got, want)
		}
		if src == rewritten && fmt.Sprint(want) != fmt.Sprint(orig.Tuples("h/2")) {
			t.Errorf("the rewrite changed the program: h = %v, original %v", want, orig.Tuples("h/2"))
		}
	}
	if h := fmt.Sprint(orig.Tuples("h/2")); h != "[h(n0, 2) h(n5, 2) h(n6, 2) h(n9, 2)]" {
		t.Errorf("centralized h = %s", h)
	}
}

// A negated `=` is a test, never a binding. It used to run as soon as it
// was reached: with Z still free, `X = Z` "succeeded" by binding Z, so
// NOT killed every branch and d came out empty — from both evaluators —
// while the two other spellings of the same condition derived six tuples.
func TestNegatedEqIsATest(t *testing.T) {
	var facts []Tuple
	for i := int64(0); i < 6; i++ {
		facts = append(facts, NewTuple("a", Int(i), Int(i%3)), NewTuple("b", Int(i%3), Int(i)))
	}
	for _, cond := range []string{"NOT X = Z", "NOT X == Z", "X != Z"} {
		src := ".base a/2.\n.base b/2.\nd(X, Z) :- a(X, Y), b(Y, Z), " + cond + ".\n"
		db, err := Eval(src, facts)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Deploy(Grid(4), src, WithSeed(2))
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range facts {
			if err := c.Inject(i, f); err != nil {
				t.Fatal(err)
			}
		}
		c.Run()
		got, want := c.Results("d/2"), db.Tuples("d/2")
		if len(want) != 6 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: cluster d = %v, centralized %v (want 6 tuples)", cond, got, want)
		}
	}
}

// Replay needs nothing from Deploy: each node re-launches the base
// generations its own store holds. A node crashes while the workload
// runs and a deletion fires inside the crash window; the replayed
// results are snlog.Eval's over the surviving facts.
func TestReplayNeedsNoLog(t *testing.T) {
	const src = `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
`
	sched := NewFaultSchedule().CrashWindow(100, 900, 12).CrashWindow(100, 900, 13)
	c, err := Deploy(Grid(5), src, WithFaults(sched, 3))
	if err != nil {
		t.Fatal(err)
	}
	var live []Tuple
	for i := 0; i < 10; i++ {
		ra := NewTuple("ra", Int(int64(i%4)), Int(int64(i%3)))
		rb := NewTuple("rb", Int(int64(i%3)), Int(int64(i)))
		if err := c.InjectAt(int64(40+80*i), (7*i)%25, ra); err != nil {
			t.Fatal(err)
		}
		if err := c.InjectAt(int64(60+80*i), (11*i+3)%25, rb); err != nil {
			t.Fatal(err)
		}
		live = append(live, ra, rb)
	}
	gone := NewTuple("ra", Int(1), Int(1))
	if err := c.DeleteAt(500, 7, gone); err != nil {
		t.Fatal(err)
	}
	live = without(live, gone)
	oracle, err := Eval(src, live)
	if err != nil {
		t.Fatal(err)
	}
	want := tupleKeys(oracle.Tuples("out/2"))
	c.Run()
	if slices.Equal(tupleKeys(c.Results("out/2")), want) {
		t.Fatal("the crashes cost no result: the repair is not exercised")
	}
	c.Replay()
	c.Run()
	if got := tupleKeys(c.Results("out/2")); !slices.Equal(got, want) {
		t.Fatalf("after Replay out/2 is %v, snlog.Eval's %v", got, want)
	}
}
