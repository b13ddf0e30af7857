package core

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/topo"
	"repro/internal/window"
)

// A node runtime holds no per-event scratch: the simulator runs one event
// at a time, so the probe buffers are the engine's, and a frame goes on
// the radio when it is sent, so there is no outbox. Per-node buffers made
// a node runtime 544 B on a 64-bit platform, times every node, and a
// batching outbox 144 B.
func TestNodeRuntimeHoldsNoScratch(t *testing.T) {
	if n := unsafe.Sizeof(nodeRT{}); unsafe.Sizeof(uintptr(0)) == 8 && n > 112 {
		t.Errorf("nodeRT is %d B, want at most 112", n)
	}
}

// The join path's allocation budget, pinned where the cost is paid:
// extending a partial by one stored tuple allocates the successor and
// nothing else — no binding nodes, no substituted arithmetic, no key —
// a local-mode join phase allocates its candidate and no partial, and a
// join flood already seen costs nothing to recognise.
func TestJoinPathAllocations(t *testing.T) {
	nw := topo.Grid(3, nsim.Config{Seed: 1})
	e, err := Deploy(nw, mustProg(t, logicJSrc+"\nj(n0, 0).\n"), Config{}, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rt := e.rts[1]
	sym := func(s string) ast.Term { return ast.Symbol(s) }
	stamp := func(seq int64) window.Stamp { return window.Stamp{TS: seq, Node: 1, Seq: seq} }
	rt.store.Insert(eval.NewTuple("j", sym("n0"), ast.Int64(0)), stamp(1))

	// logicJ's second rule, j(Y, D1) :- g(X, Y), j(X, D), D1 = D + 1,
	// NOT jp(Y, D1), pinned at g(n0, n1): the extension binds D from the
	// stored j(n0, 0) and runs D1 = D + 1.
	var tg trigger
	for _, c := range e.preds["g/2"].triggers {
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

	// A whole join phase of the g(n0, n1) update at the warmed node: both
	// logicJ rules are local-mode, so their seeds and extensions come from
	// the engine's slab and are released on return. What is left is the
	// candidate j(n1, 1) itself: candR, head args, deriv key, resultMsg.
	rt.joinPhase(rec)
	allocs = testing.AllocsPerRun(100, func() {
		rt.pendingCands = rt.pendingCands[:0]
		rt.joinPhase(rec)
	})
	t.Logf("join phase of one update, one candidate: %v allocs", allocs)
	if allocs > 4 {
		t.Errorf("join phase of one update: %v allocs, want <= 4 (no partialBlock)", allocs)
	}
	if js := &e.scratch; js.used != 0 || js.local {
		t.Errorf("after the join phase: %d slab blocks in use, local = %v", js.used, js.local)
	}
	if len(e.scratch.blocks) == 0 {
		t.Error("the local expansion drew no block from the slab")
	}
	for c, chunk := range e.scratch.blocks {
		for i := range chunk {
			if !reflect.ValueOf(chunk[i]).IsZero() {
				t.Fatalf("slab block %d/%d not zeroed after release: it keeps terms alive", c, i)
			}
		}
	}

	rt.seenJoinFlood(stamp(3), false)
	if allocs := testing.AllocsPerRun(100, func() {
		if !rt.seenJoinFlood(stamp(3), false) {
			t.Fatal("seen join flood not recognised")
		}
	}); allocs != 0 {
		t.Errorf("join-flood set on a seen frame: %v allocs, want 0", allocs)
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

// mixedSrc runs logicJ's local-mode rules beside a three-stream hash-mode
// join, so local expansions (slab partials) and sweep walkers (heap
// partials) interleave on one engine and its one slab.
const mixedSrc = logicJSrc + `
.base r/2.
.base s/2.
.base u/2.
w(A, D) :- r(A, B), s(B, C), u(C, D).
j(n0, 0).
`

// The engine's one slab is released at the end of every local expansion;
// a sweep partial in flight must never be among the blocks it zeroes.
func TestSlabLeavesInFlightPartials(t *testing.T) {
	i64 := ast.Int64
	var streams []eval.Tuple
	for k := int64(0); k < 4; k++ {
		streams = append(streams,
			eval.NewTuple("r", i64(k), i64(10+k)), eval.NewTuple("s", i64(10+k), i64(20+k%2)),
			eval.NewTuple("u", i64(20+k%2), i64(30+k)))
	}

	// End to end: edges (each one a local expansion somewhere) arrive
	// spread over the time the stream walkers are in flight.
	nw := topo.Grid(4, nsim.Config{Seed: 12})
	e, err := Deploy(nw, mustProg(t, mixedSrc), Config{Scheme: gpa.Perpendicular}, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	var base []eval.Tuple
	for _, n := range nw.Nodes() {
		for _, nb := range n.Neighbors() {
			g := eval.NewTuple("g", ast.Symbol(fmt.Sprintf("n%d", n.ID)), ast.Symbol(fmt.Sprintf("n%d", nb)))
			if err := e.InjectAt(nsim.Time(len(base)*7), n.ID, g); err != nil {
				t.Fatal(err)
			}
			base = append(base, g)
		}
	}
	for i, tup := range streams {
		if err := e.InjectAt(nsim.Time(3+i*29), nsim.NodeID((i*5)%nw.Len()), tup); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(0)
	if len(e.Derived("j/2")) != 16 || len(e.Derived("w/2")) < 8 {
		t.Fatalf("j has %d tuples, w %d: the run did not exercise both modes",
			len(e.Derived("j/2")), len(e.Derived("w/2")))
	}
	oracleCompare(t, e, mixedSrc, append(base, streams...), "j/2", "w/2")

	// Directly: the partials of a walker that joinPhase launched keep
	// their registers and stamps across another node's local expansion.
	nw = topo.Grid(3, nsim.Config{Seed: 1})
	e, err = Deploy(nw, mustProg(t, mixedSrc), Config{Scheme: gpa.Perpendicular}, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	stamp := func(seq int64) window.Stamp { return window.Stamp{TS: seq, Node: 0, Seq: seq} }
	sweep, local := e.rts[4], e.rts[1]
	sweep.store.Insert(eval.NewTuple("s", i64(10), i64(20)), stamp(1))
	local.store.Insert(eval.NewTuple("j", ast.Symbol("n0"), i64(0)), stamp(2))

	rr := &updateRec{Tuple: eval.NewTuple("r", i64(0), i64(10)), ID: stamp(3), Tau: stamp(3)}
	delivered := capture(nw)
	sweep.joinPhase(rr)
	var jm *joinMsg
	for _, d := range delivered() {
		if m, ok := d.payload.(*joinMsg); ok {
			jm = m
		}
	}
	if jm == nil || len(jm.Partials) != 1 {
		t.Fatalf("the r update launched no walker with its seed: %+v", jm)
	}
	sweep.processJoinHere(jm)
	if len(jm.Partials) != 2 {
		t.Fatalf("walker carries %d partials, want the seed and its s extension", len(jm.Partials))
	}
	type snap struct {
		regs   []ast.Term
		stamps []window.Stamp
	}
	var before []snap
	for _, q := range jm.Partials {
		before = append(before, snap{append([]ast.Term(nil), q.b.Regs...), append([]window.Stamp(nil), q.stamps...)})
	}

	local.joinPhase(&updateRec{Tuple: eval.NewTuple("g", ast.Symbol("n0"), ast.Symbol("n1")), ID: stamp(4), Tau: stamp(4)})
	if len(e.scratch.blocks) == 0 {
		t.Fatal("the local expansion drew no block from the slab")
	}
	for i, q := range jm.Partials {
		if !reflect.DeepEqual(q.b.Regs, before[i].regs) || !reflect.DeepEqual(q.stamps, before[i].stamps) {
			t.Errorf("walker partial %d changed under a local expansion: regs %v stamps %v, was %v %v",
				i, q.b.Regs, q.stamps, before[i].regs, before[i].stamps)
		}
	}
}

// On logicJ every replicated tuple is a `.store … hops 1` flood, and the
// store is what recognises a flood copy: after quiescence no node holds
// a flood set beside its replicas (join floods are the only ones that
// keep one, and logicJ has none), and the stores hold what they held
// while a separate set of every replica flood sat beside them (6,087
// replicas and 6,056 messages on Grid(16), seed 7).
func TestReplicaFloodsKeepNoSet(t *testing.T) {
	nw := topo.Grid(16, nsim.Config{Seed: 7})
	e, err := Deploy(nw, mustProg(t, logicJSrc+"\nj(n0, 0).\n"), Config{}, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	injectGridEdges(e, nw)
	nw.Run(0)
	replicas := 0
	for id, rt := range e.rts {
		if len(rt.joinFloods) != 0 {
			t.Errorf("node %d: %d join-flood entries on a program with no join flood", id, len(rt.joinFloods))
		}
		replicas += e.StoredReplicas(nsim.NodeID(id))
	}
	if replicas != 6087 || nw.TotalSent != 6056 {
		t.Errorf("%d replicas, %d messages; want 6087 and 6056", replicas, nw.TotalSent)
	}
}

// A node lets go of the candidates it has settled: drainFinalize keeps
// the pending ones in the front of pendingCands, and nothing past them
// in the backing array may still point at a settled candidate (with its
// keys, head and partial). logicJ on Grid(8) leaves none pending at
// quiescence; with the vacated tail left as it was, 226 stale
// candidates stayed reachable.
func TestSettledCandidatesReleased(t *testing.T) {
	nw := topo.Grid(8, nsim.Config{Seed: 7})
	e, err := Deploy(nw, mustProg(t, logicJSrc+"\nj(n0, 0).\n"), Config{}, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	injectGridEdges(e, nw)
	nw.Run(0)
	pending, stale := 0, 0
	for _, rt := range e.rts {
		pending += len(rt.pendingCands)
		for _, pc := range rt.pendingCands[len(rt.pendingCands):cap(rt.pendingCands)] {
			if pc.c != nil {
				stale++
			}
		}
	}
	if pending != 0 {
		t.Fatalf("%d candidates pending at quiescence", pending)
	}
	if stale != 0 {
		t.Errorf("%d settled candidates still referenced past the pending ones", stale)
	}
}

// Centralized joins at the server (its join plan's OnArrival). An update
// generated at the server is joined at once, under its generation stamp;
// one generated elsewhere is joined as its storage walk arrives, under a
// stamp the server takes then. That stamp orders the update's candidates
// at finalize.
func TestCentralizedJoinStamps(t *testing.T) {
	const m = 3
	server := topo.GridID(m, 1, 1)
	e, nw := buildGrid(t, m, joinSrc, Config{Scheme: gpa.Centralized, Server: server}, nsim.Config{Seed: 2})
	mustInject(t, e, 0, server, eval.NewTuple("rb", ast.Int64(2), ast.Int64(3)))
	mustInject(t, e, 10, server, eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)))
	mustInject(t, e, 20, 0, eval.NewTuple("ra", ast.Int64(5), ast.Int64(2)))
	// By tick 100 both joins have run and neither candidate is due yet.
	nw.Run(100)
	update := map[int64]window.Stamp{} // by the head's first argument
	for _, rt := range e.rts {
		for _, pc := range rt.pendingCands {
			update[pc.c.Head.Args[0].Int] = pc.c.Update
		}
	}
	if len(update) != 2 {
		t.Fatalf("candidates in flight for %d heads, want 2", len(update))
	}
	// The server's stamps count its generations (rb, then ra) and then the
	// arrival of node 0's ra.
	if got := update[1]; got.Node != int(server) || got.Seq != 2 {
		t.Errorf("an update generated at the server joined under %+v, want its generation stamp (seq 2)", got)
	}
	if got := update[5]; got.Node != int(server) || got.Seq != 3 {
		t.Errorf("an update from node 0 joined under %+v, want the server's stamp at arrival (seq 3)", got)
	}
	nw.Run(0)
	if out := e.Derived("out/2"); len(out) != 2 {
		t.Errorf("out/2 = %v, want out(1, 3) and out(5, 3)", out)
	}
}
