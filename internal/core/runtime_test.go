package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/window"
)

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

// TestWalkerHopAllocs: once a walker has its path, one more hop of a
// store, join or result walker — the arrival test, the next-hop decision
// and the transmission with its per-kind count — allocates nothing.
func TestWalkerHopAllocs(t *testing.T) {
	const m = 16
	e, nw := buildGrid(t, m, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 1})
	// Grow the event queue first, so that the hops' frames take recycled
	// slots (the queue's growth is TestEventLoopAllocs'), and keep it
	// from emptying, which would release its storage.
	for i := 0; i < 1000; i++ {
		nw.ScheduleAt(0, func() {})
	}
	nw.ScheduleAt(1<<40, func() {})
	nw.Run(1)
	rt := e.rts[topo.GridID(m, 0, 0)]
	far := gpa.Leg{TargetX: m - 1, TargetY: m - 1}
	sm := &storeMsg{Tuple: eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)), Legs: []gpa.Leg{far}, Visited: rt.walkFor(far)}
	jm := &joinMsg{Update: sm.Tuple, Legs: []gpa.Leg{far}, Visited: rt.walkFor(far)}
	rm := &resultMsg{Cand: &candR{Head: eval.NewTuple("out", ast.Int64(1), ast.Int64(2)), DerivKey: "k"}, TX: far.TargetX, TY: far.TargetY, Visited: rt.walkFor(far)}
	for _, hop := range []struct {
		kind string
		f    func()
	}{
		{kindStore, func() { sm.Visited = sm.Visited[:1]; rt.forwardStore(sm) }},
		{kindJoin, func() { jm.Visited = jm.Visited[:1]; rt.forwardJoin(jm) }},
		{kindResult, func() { rm.Visited = rm.Visited[:1]; rt.forwardResult(rm) }},
	} {
		hop.f() // the first hop computes the target's cache entry
		sent := nw.KindCounts()[hop.kind]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 200; i++ {
			hop.f()
		}
		runtime.ReadMemStats(&after)
		if got := nw.KindCounts()[hop.kind] - sent; got != 200 {
			t.Fatalf("%s: %d hops sent, want 200 (the walker arrived or was stranded)", hop.kind, got)
		}
		mallocs := after.Mallocs - before.Mallocs
		t.Logf("200 %s hops: %d mallocs", hop.kind, mallocs)
		if mallocs != 0 {
			t.Errorf("200 %s hops: %d mallocs, want 0", hop.kind, mallocs)
		}
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
	e, err = Deploy(nw, mustProg(t, mixedSrc), Config{Scheme: gpa.Perpendicular, BatchLinks: true}, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	stamp := func(seq int64) window.Stamp { return window.Stamp{TS: seq, Node: 0, Seq: seq} }
	sweep, local := e.rts[4], e.rts[1]
	sweep.store.Insert(eval.NewTuple("s", i64(10), i64(20)), stamp(1))
	local.store.Insert(eval.NewTuple("j", ast.Symbol("n0"), i64(0)), stamp(2))

	rr := &updateRec{Tuple: eval.NewTuple("r", i64(0), i64(10)), ID: stamp(3), Tau: stamp(3)}
	sweep.joinPhase(rr)
	var jm *joinMsg
	for _, it := range sweep.outbox {
		if m, ok := it.payload.(*joinMsg); ok {
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

// A flood frame is shared by every neighbour that received it, so
// forwarding copies it only to carry a decremented TTL; a frame whose TTL
// runs out is not forwarded, and an unlimited flood forwards the frame it
// received.
func TestStoreFloodForwarding(t *testing.T) {
	nw := topo.Grid(3, nsim.Config{Seed: 1})
	e, err := Deploy(nw, mustProg(t, ".base p/1.\n.store p/1 at 0 hops 2.\n"), Config{BatchLinks: true}, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	tup := eval.NewTuple("p", ast.Symbol("n4"))
	frames := func(rt *nodeRT) []*storeMsg {
		var out []*storeMsg
		for _, it := range rt.outbox {
			out = append(out, it.payload.(*storeMsg))
		}
		rt.outbox = rt.outbox[:0]
		return out
	}

	sm := &storeMsg{Tuple: tup, ID: window.Stamp{TS: 1, Node: 4, Seq: 1}, Flood: true, TTL: 2}
	for _, nb := range nw.Node(4).Neighbors() {
		rt := e.rts[nb]
		rt.onStore(sm)
		if fwd := frames(rt); len(fwd) != len(rt.node.Neighbors()) {
			t.Fatalf("node %d forwarded %d frames, want one per neighbour", nb, len(fwd))
		} else {
			for _, f := range fwd {
				if f == sm || f.TTL != 1 {
					t.Fatalf("node %d forwarded the received frame or TTL %d, want a TTL-1 copy", nb, f.TTL)
				}
			}
		}
		if sm.TTL != 2 {
			t.Fatalf("the shared frame's TTL became %d after node %d forwarded", sm.TTL, nb)
		}
	}

	last := &storeMsg{Tuple: tup, ID: window.Stamp{TS: 2, Node: 4, Seq: 2}, Flood: true, TTL: 1}
	e.rts[0].onStore(last)
	if fwd := frames(e.rts[0]); len(fwd) != 0 {
		t.Errorf("a TTL-1 frame was forwarded %d times", len(fwd))
	}

	open := &storeMsg{Tuple: tup, ID: window.Stamp{TS: 3, Node: 4, Seq: 3}, Flood: true, TTL: -1}
	e.rts[0].onStore(open)
	fwd := frames(e.rts[0])
	if len(fwd) == 0 {
		t.Fatal("an unlimited flood was not forwarded")
	}
	for _, f := range fwd {
		if f != open {
			t.Errorf("an unlimited flood forwarded a copy, want the received frame")
		}
	}
}

// Every copy of a walker that walks on starts its own path: the next
// multi-pass iteration never shares its visited set's backing array with
// the walker it was copied from, so neither can overwrite the other's.
func TestWalkerCopiesOwnTheirPath(t *testing.T) {
	nw := topo.Grid(4, nsim.Config{Seed: 1})
	e, err := Deploy(nw, mustProg(t, mixedSrc), Config{Scheme: gpa.Perpendicular, MultiPass: true, BatchLinks: true}, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rt := e.rts[5]
	stamp := window.Stamp{TS: 1, Node: 5, Seq: 1}
	rec := &updateRec{Tuple: eval.NewTuple("r", ast.Int64(0), ast.Int64(10)), ID: stamp, Tau: stamp}
	p, ok := rt.seedPartial(e.triggers["r/2"][0], rec)
	if !ok {
		t.Fatal("r seed did not match")
	}
	legs := rt.plans.join.Legs
	jm := &joinMsg{
		Update: rec.Tuple, ID: rec.ID, Tau: rec.Tau, Partials: []*partialR{p},
		Legs: legs, Visited: rt.walkFor(legs...),
		PassRule: p.cr, PassPin: p.pinned,
	}
	rt.sweepFinished(jm) // the first pass ends here; the second sets out
	var next *joinMsg
	for _, it := range rt.outbox {
		if m, ok := it.payload.(*joinMsg); ok {
			next = m
		}
	}
	if next == nil || next == jm || next.Pass != 1 {
		t.Fatalf("no second-pass walker left the node: %+v", next)
	}
	if &next.Visited[0] == &jm.Visited[0] {
		t.Fatal("the second pass shares its path's backing array with the first")
	}
	if len(jm.Visited) != 1 || jm.Visited[0] != rt.node.ID {
		t.Errorf("the first pass's path became %v", jm.Visited)
	}
}

// A walker's path is sized for the longest leg it walks, so on a grid it
// never outgrows its one allocation: every storage and join walk of a
// Perpendicular 16x16 grid, two-way join sweeps included, and a result
// walk between any two nodes, fit the capacity walkFor gives them (as
// launch, joinPhase and forwardResult call it; startPath cuts the same
// capacity from a walker pair's shared array).
func TestWalkerPathFitsItsLegs(t *testing.T) {
	m := 16
	nw := topo.Grid(m, nsim.Config{Seed: 1})
	e, err := Deploy(nw, mustProg(t, mixedSrc), Config{Scheme: gpa.Perpendicular}, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	fits := func(what string, rt *nodeRT, legs []gpa.Leg) {
		c := cap(rt.walkFor(legs...))
		from := rt.node.ID
		for i, l := range legs {
			path := routing.GreedyPath(nw, from, l.TargetX, l.TargetY, 4*m)
			if len(path) > c {
				t.Fatalf("%s walk from node %d, leg %d: %d nodes, capacity %d", what, rt.node.ID, i, len(path), c)
			}
			from = path[len(path)-1]
		}
	}
	for _, rt := range e.rts {
		for _, l := range rt.plans.storage.Legs {
			fits("storage", rt, []gpa.Leg{l}) // each leg is its own walker
		}
		fits("join", rt, rt.plans.join.Legs)
		for _, l := range rt.plans.sweeps {
			fits("two-way join", rt, []gpa.Leg{l}) // so is each sweep
		}
		for _, to := range nw.Nodes() {
			fits("result", rt, []gpa.Leg{{TargetX: to.X, TargetY: to.Y}})
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
