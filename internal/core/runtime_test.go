package core

import (
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/topo"
	"repro/internal/window"
)

// The join path's allocation budget, pinned where the cost is paid:
// extending a partial by one stored tuple allocates the successor and
// nothing else — no binding nodes, no substituted arithmetic, no key —
// and a flood frame already seen costs nothing to recognise.
func TestJoinPathAllocations(t *testing.T) {
	nw := topo.Grid(3, nsim.Config{Seed: 1})
	e, err := New(nw, mustProg(t, logicJSrc+"\nj(n0, 0).\n"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	nw.Finalize()
	rt := e.rts[1]
	sym := func(s string) ast.Term { return ast.Symbol(s) }
	stamp := func(seq int64) window.Stamp { return window.Stamp{TS: seq, Node: 1, Seq: seq} }
	rt.store.Insert(eval.NewTuple("j", sym("n0"), ast.Int64(0)), stamp(1))

	// logicJ's second rule, j(Y, D1) :- g(X, Y), j(X, D), D1 = D + 1,
	// NOT jp(Y, D1), pinned at g(n0, n1): the extension binds D from the
	// stored j(n0, 0) and runs D1 = D + 1.
	var tg trigger
	for _, c := range e.triggers["g/2"] {
		if len(c.rule.negIdx) == 1 {
			tg = c
		}
	}
	rec := &updateRec{Tuple: eval.NewTuple("g", sym("n0"), sym("n1")), ID: stamp(2), Tau: stamp(2)}
	p, ok := rt.seedPartial(tg, rec)
	if !ok {
		t.Fatal("seed did not match")
	}
	out := make([]*partialR, 0, 4)
	if out = rt.extend(p, rec.Tau, -1, out[:0]); len(out) != 1 || !out[0].complete() {
		t.Fatalf("extend produced %d partials, want one complete", len(out))
	}
	if c, ok := rt.mkCand(out[0], rec, true); !ok || c.Head.String() != "j(n1, 1)" {
		t.Fatalf("candidate = %v, %v", c, ok)
	}
	allocs := testing.AllocsPerRun(100, func() { out = rt.extend(p, rec.Tau, -1, out[:0]) })
	t.Logf("extending a partial by one entry: %v allocs", allocs)
	if allocs > 2 {
		t.Errorf("extending a partial by one entry: %v allocs, want <= 2", allocs)
	}

	key := floodKey{id: stamp(3), join: true}
	rt.dedup.Check(key)
	if allocs := testing.AllocsPerRun(100, func() {
		if !rt.dedup.Check(key) {
			t.Fatal("seen flood frame not recognised")
		}
	}); allocs != 0 {
		t.Errorf("flood dedup on a seen key: %v allocs, want 0", allocs)
	}
}

// A rule too wide for the one-allocation block — five positive subgoals,
// ten variables — takes newPartial's separate-slices path and derives
// what the oracle derives (a five-stream chain joins through four nodes'
// worth of extensions, in every arrival order the stagger produces).
func TestWideRulePartials(t *testing.T) {
	const src = `
.base s1/2.
.base s2/2.
.base s3/3.
.base s4/2.
.base s5/3.
w(A, K, S) :- s1(A, B), s2(B, C), s3(C, D, E), s4(E, F), s5(F, G, K), S = A + G.
`
	e, nw := buildGrid(t, 5, src, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 3})
	if cr := e.rules[0]; cr.nvars <= inlineRegs || len(cr.posIdx) <= inlineStamps {
		t.Fatalf("rule has %d variables and %d positive subgoals: not wide", cr.nvars, len(cr.posIdx))
	}
	i64 := ast.Int64
	var base []eval.Tuple
	for k := int64(0); k < 3; k++ {
		base = append(base,
			eval.NewTuple("s1", i64(k), i64(10+k)), eval.NewTuple("s2", i64(10+k), i64(20+k)),
			eval.NewTuple("s3", i64(20+k), i64(k), i64(30+k%2)), eval.NewTuple("s4", i64(30+k%2), i64(40)),
			eval.NewTuple("s5", i64(40), i64(k), i64(50+k)))
	}
	for i, tup := range base {
		if err := e.InjectAt(nsim.Time(i%5*40), nsim.NodeID((i*7)%nw.Len()), tup); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(0)
	if n := len(e.Derived("w/3")); n < 9 {
		t.Fatalf("w has %d tuples; the chain should fan out", n)
	}
	oracleCompare(t, e, src, base, "w/3")
}
