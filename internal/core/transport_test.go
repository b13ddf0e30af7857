package core

import (
	"slices"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/mallocs"
	"repro/internal/nsim"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/window"
)

// deployObserved deploys joinSrc under Perpendicular on an m×m grid
// with a registry attached and batched links, so a send stays in the
// sender's outbox until the simulator runs.
func deployObserved(t *testing.T, m int) (*Engine, *nsim.Network, *obs.Registry) {
	t.Helper()
	nw := topo.Grid(m, nsim.Config{Seed: 1})
	reg := obs.NewRegistry()
	e, err := Deploy(nw, mustProg(t, joinSrc), Config{Scheme: gpa.Perpendicular, BatchLinks: true}, reg, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return e, nw, reg
}

// follow drives a walker from node from with advance, delivering each
// send by hand, and returns the node and outcome it ended with.
func follow(e *Engine, from nsim.NodeID, w *walk, f frame) (nsim.NodeID, outcome) {
	at := from
	for {
		rt := e.rts[at]
		o := rt.advance(w, f)
		if o != sent {
			return at, o
		}
		at = rt.outbox[len(rt.outbox)-1].dst
		rt.outbox = rt.outbox[:0]
	}
}

// A point walk ends at the live node nearest its point and a named walk
// at its node, each along the greedy path, which the walk carries.
func TestWalkRoutes(t *testing.T) {
	const m = 5
	e, nw, _ := deployObserved(t, m)
	cand := &candR{Head: eval.NewTuple("out", ast.Int64(1), ast.Int64(2)), DerivKey: "k"}
	for _, c := range []struct {
		name string
		from nsim.NodeID
		w    walk
		want nsim.NodeID
	}{
		{"point", topo.GridID(m, 0, 0), walk{x: 3.2, y: 2.9}, topo.GridID(m, 3, 3)},
		{"named", topo.GridID(m, 0, 4), walk{x: 4, y: 1, to: nw.Node(topo.GridID(m, 4, 1))}, topo.GridID(m, 4, 1)},
	} {
		rm := &resultMsg{walk: c.w, Cand: cand}
		at, o := follow(e, c.from, &rm.walk, rm)
		if o != arrived || at != c.want {
			t.Errorf("%s walk ended at node %d (outcome %d), want arrived at %d", c.name, at, o, c.want)
		}
		if want := routing.GreedyPath(nw, c.from, c.w.x, c.w.y, 4*m); !slices.Equal(rm.path, want) {
			t.Errorf("%s walk took %v, want the greedy path %v", c.name, rm.path, want)
		}
	}
}

// A join walker that seeks the head of a column and sweeps it processes
// every node of the sweep leg once, the node where the leg begins
// included, and no node of the seek leg.
func TestJoinWalkSweepsEachNodeOnce(t *testing.T) {
	const m = 5
	nw := topo.Grid(m, nsim.Config{Seed: 1})
	reg := obs.NewRegistry()
	e, err := Deploy(nw, mustProg(t, joinSrc), Config{Scheme: gpa.Perpendicular}, reg, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rt := e.rts[topo.GridID(m, 0, 0)]
	stamp := window.Stamp{TS: 1, Node: int(rt.node.ID), Seq: 1}
	rec := &updateRec{Tuple: eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)), ID: stamp, Tau: stamp}
	p, ok := rt.seedPartial(e.triggers["ra/2"][0], rec)
	if !ok {
		t.Fatal("ra seed did not match")
	}
	// Each processing of the walker probes the one unbound subgoal once.
	legs := []gpa.Leg{{TargetX: 2, TargetY: 0}, {TargetX: 2, TargetY: m - 1, Sweep: true}}
	jm := &joinMsg{Update: rec.Tuple, ID: rec.ID, Tau: rec.Tau, Partials: []*partialR{p}, legWalk: along(legs, rt.walkFor(legs...))}
	rt.walkJoin(jm)
	nw.Run(0)
	var column []nsim.NodeID
	for y := 0; y < m; y++ {
		column = append(column, topo.GridID(m, 2, y))
	}
	if jm.leg != 1 || !slices.Equal(jm.path, column) {
		t.Fatalf("the sweep leg walked %v (leg %d), want the column %v", jm.path, jm.leg, column)
	}
	if probes := reg.Snapshot().Get("core.probes"); probes != int64(len(column)) {
		t.Errorf("%d probes along a %d-node sweep, want one per sweep node", probes, len(column))
	}
}

// A band flood reaches only the neighbours inside its band, all with the
// frame it was given; a join flood with a TTL is relayed as a copy with
// one hop less, and not at all once its TTL runs out.
func TestFloodRelay(t *testing.T) {
	const m = 5
	e, _, _ := deployObserved(t, m)
	rt := e.rts[topo.GridID(m, 2, 2)]
	sent := func() (dsts []nsim.NodeID, payloads []interface{}) {
		for _, it := range rt.outbox {
			dsts, payloads = append(dsts, it.dst), append(payloads, it.payload)
		}
		rt.outbox = rt.outbox[:0]
		return dsts, payloads
	}

	band := &gpa.Band{Axis: 'x', Center: 2, Width: 1}
	sm := &storeMsg{Tuple: eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)), flood: flood{flooding: true, band: band}}
	rt.relay(sm)
	dsts, payloads := sent()
	slices.Sort(dsts)
	if want := []nsim.NodeID{topo.GridID(m, 2, 1), topo.GridID(m, 2, 3)}; !slices.Equal(dsts, want) {
		t.Errorf("band relay reached %v, want the in-band neighbours %v", dsts, want)
	}
	for _, p := range payloads {
		if p != sm {
			t.Error("a band relay sent a copy, want the frame it was given")
		}
	}

	jm := &joinMsg{Update: sm.Tuple, ID: window.Stamp{TS: 1, Node: 1, Seq: 1}, flood: flood{flooding: true, ttl: 2}}
	rt.onJoin(jm)
	dsts, payloads = sent()
	if len(dsts) != len(rt.node.Neighbors()) {
		t.Fatalf("a TTL-2 join flood reached %d neighbours, want %d", len(dsts), len(rt.node.Neighbors()))
	}
	for _, p := range payloads {
		if c := p.(*joinMsg); c == jm || c.ttl != 1 {
			t.Fatalf("relayed the received frame or TTL %d, want a TTL-1 copy", c.ttl)
		}
	}
	rt.onJoin(&joinMsg{Update: sm.Tuple, ID: window.Stamp{TS: 2, Node: 1, Seq: 2}, flood: flood{flooding: true, ttl: 1}})
	if dsts, _ := sent(); len(dsts) != 0 {
		t.Errorf("a TTL-1 join flood was relayed %d times", len(dsts))
	}
}

// Each kind of walker strands on routing_test.go's void — (0, 2) of a
// 5x5 grid with (1, 2) down, its other neighbours on the path, walking
// toward (4, 2) — and each kind's policy holds: a store walker stores
// where it stopped, a result is buffered there as at its home, and a
// join walker ends its leg there and sets out on the next. Each stranding
// is counted once, under its kind.
func TestStrandingPolicies(t *testing.T) {
	const m = 5
	e, nw, reg := deployObserved(t, m)
	nw.Node(topo.GridID(m, 1, 2)).Down = true
	at := topo.GridID(m, 0, 2)
	rt := e.rts[at]
	stuck := func() walk {
		return walk{x: 4, y: 2, path: []nsim.NodeID{topo.GridID(m, 0, 1), topo.GridID(m, 0, 3), at}}
	}
	counts := func() [3]int64 {
		s := reg.Snapshot()
		return [3]int64{s.Get("routing.stranded.store"), s.Get("routing.stranded.join"), s.Get("routing.stranded.result")}
	}

	w := stuck()
	w.to = nw.Node(topo.GridID(m, 4, 2))
	stored := e.StoredReplicas(at)
	rt.walkStore(&storeMsg{Tuple: eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)), walk: w})
	if got := e.StoredReplicas(at); got != stored+1 {
		t.Errorf("stranded store walker: node holds %d replicas, want %d", got, stored+1)
	}
	if c := counts(); c != [3]int64{1, 0, 0} {
		t.Errorf("after a store walker stranded: stranded store/join/result = %v", c)
	}

	rt.walkResult(&resultMsg{walk: stuck(), Cand: &candR{Head: eval.NewTuple("out", ast.Int64(1), ast.Int64(2)), DerivKey: "k"}})
	if len(rt.pendingCands) != 1 {
		t.Errorf("stranded result: %d candidates buffered where it stranded, want 1", len(rt.pendingCands))
	}
	if c := counts(); c != [3]int64{1, 0, 1} {
		t.Errorf("after a result stranded: stranded store/join/result = %v", c)
	}

	legs := []gpa.Leg{{TargetX: 4, TargetY: 2}, {TargetX: 0, TargetY: 0, Sweep: true}}
	jm := &joinMsg{Update: eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)), legWalk: legWalk{walk: stuck(), legs: legs}}
	rt.walkJoin(jm)
	if jm.leg != 1 || len(jm.path) != 2 || jm.path[0] != at || len(rt.outbox) != 1 {
		t.Errorf("stranded join walker: leg %d, path %v, %d frames sent; want the next leg set out from node %d", jm.leg, jm.path, len(rt.outbox), at)
	}
	if c := counts(); c != [3]int64{1, 1, 1} {
		t.Errorf("after a join walker stranded: stranded store/join/result = %v", c)
	}
}

// TestWalkerHopAllocs: once a walker has its path, one more hop of a
// store, join or result walker — advance's arrival test, next-hop
// decision and transmission with its per-kind count — allocates nothing.
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
	far := []gpa.Leg{{TargetX: m - 1, TargetY: m - 1}}
	sm := &storeMsg{Tuple: eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)), walk: walk{x: far[0].TargetX, y: far[0].TargetY, path: rt.walkFor(far...)}}
	jm := &joinMsg{Update: sm.Tuple, legWalk: along(far, rt.walkFor(far...))}
	rm := &resultMsg{Cand: &candR{Head: eval.NewTuple("out", ast.Int64(1), ast.Int64(2)), DerivKey: "k"}, walk: walk{x: far[0].TargetX, y: far[0].TargetY}}
	for _, hop := range []struct {
		w *walk
		f frame
	}{{&sm.walk, sm}, {&jm.walk, jm}, {&rm.walk, rm}} {
		kind := hop.f.kind()
		step := func() {
			if hop.w.path != nil {
				hop.w.path = hop.w.path[:1]
			}
			if o := rt.advance(hop.w, hop.f); o != sent {
				t.Fatalf("%s: outcome %d, want sent", kind, o)
			}
		}
		step() // the first hop computes the target's cache entry (and a result's path)
		before := nw.KindCounts()[kind]
		n := mallocs.Count(func() {
			for i := 0; i < 200; i++ {
				step()
			}
		})
		if got := nw.KindCounts()[kind] - before; got != 200 {
			t.Fatalf("%s: %d hops sent, want 200", kind, got)
		}
		t.Logf("200 %s hops: %d mallocs", kind, n)
		if n != 0 {
			t.Errorf("200 %s hops: %d mallocs, want 0", kind, n)
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

	sm := &storeMsg{Tuple: tup, ID: window.Stamp{TS: 1, Node: 4, Seq: 1}, flood: flood{flooding: true, ttl: 2}}
	for _, nb := range nw.Node(4).Neighbors() {
		rt := e.rts[nb]
		rt.onStore(sm)
		if fwd := frames(rt); len(fwd) != len(rt.node.Neighbors()) {
			t.Fatalf("node %d forwarded %d frames, want one per neighbour", nb, len(fwd))
		} else {
			for _, f := range fwd {
				if f == sm || f.ttl != 1 {
					t.Fatalf("node %d forwarded the received frame or TTL %d, want a TTL-1 copy", nb, f.ttl)
				}
			}
		}
		if sm.ttl != 2 {
			t.Fatalf("the shared frame's TTL became %d after node %d forwarded", sm.ttl, nb)
		}
	}

	last := &storeMsg{Tuple: tup, ID: window.Stamp{TS: 2, Node: 4, Seq: 2}, flood: flood{flooding: true, ttl: 1}}
	e.rts[0].onStore(last)
	if fwd := frames(e.rts[0]); len(fwd) != 0 {
		t.Errorf("a TTL-1 frame was forwarded %d times", len(fwd))
	}

	open := &storeMsg{Tuple: tup, ID: window.Stamp{TS: 3, Node: 4, Seq: 3}, flood: flood{flooding: true}}
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
		legWalk:  along(legs, rt.walkFor(legs...)),
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
	if &next.path[0] == &jm.path[0] {
		t.Fatal("the second pass shares its path's backing array with the first")
	}
	if len(jm.path) != 1 || jm.path[0] != rt.node.ID {
		t.Errorf("the first pass's path became %v", jm.path)
	}
}

// A walker's path is sized for the longest leg it walks, so on a grid it
// never outgrows its one allocation: every storage and join walk of a
// Perpendicular 16x16 grid, two-way join sweeps included, and a result
// walk between any two nodes, fit the capacity walkFor gives them (as
// launch, joinPhase and advance call it; startPath cuts the same
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
