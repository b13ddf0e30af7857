package core

import (
	"slices"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/window"
)

// A replay on a healthy, quiescent run must be a semantic no-op: the
// derived state still equals the oracle afterwards (the re-execution
// collapses into the already-present state by stamp idempotency).
func TestReplayNoOpOnHealthyRun(t *testing.T) {
	e, nw := buildGrid(t, 5, joinSrc,
		Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 2})
	var base []eval.Tuple
	for i := 0; i < 6; i++ {
		ra := eval.NewTuple("ra", ast.Int64(int64(i)), ast.Int64(int64(i%3)))
		rb := eval.NewTuple("rb", ast.Int64(int64(i%3)), ast.Int64(int64(i)))
		e.InjectAt(nsim.Time(i*90), nsim.NodeID((i*5)%nw.Len()), ra)
		e.InjectAt(nsim.Time(i*90+30), nsim.NodeID((i*9+2)%nw.Len()), rb)
		base = append(base, ra, rb)
	}
	nw.Run(0)
	oracleCompare(t, e, joinSrc, base, "out/2")
	e.Replay()
	nw.Run(0)
	oracleCompare(t, e, joinSrc, base, "out/2")
}

// Crashing a third of the grid while the workload runs loses walkers
// and candidates for good; a replay pass after the nodes recover must
// restore oracle equality. Deletions are part of the workload so the
// repair also replays deletion markers.
func TestReplayRepairsCrashLoss(t *testing.T) {
	e, nw := buildGrid(t, 6, joinSrc,
		Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 3})
	// Take a band of the grid down for the middle of the workload.
	var downed []nsim.NodeID
	for id := 6; id < 18; id++ {
		downed = append(downed, nsim.NodeID(id))
	}
	nw.ScheduleAt(100, func() {
		for _, id := range downed {
			nw.Node(id).Down = true
		}
	})
	nw.ScheduleAt(900, func() {
		for _, id := range downed {
			nw.Node(id).Down = false
		}
	})
	live := map[string]eval.Tuple{}
	for i := 0; i < 8; i++ {
		ra := eval.NewTuple("ra", ast.Int64(int64(i)), ast.Int64(int64(i%4)))
		rb := eval.NewTuple("rb", ast.Int64(int64(i%4)), ast.Int64(int64(i)))
		e.InjectAt(nsim.Time(40+i*110), nsim.NodeID((i*7)%nw.Len()), ra)
		e.InjectAt(nsim.Time(70+i*110), nsim.NodeID((i*13+4)%nw.Len()), rb)
		live[ra.Key()] = ra
		live[rb.Key()] = rb
	}
	// Delete two tuples, one while the band is down.
	del1 := eval.NewTuple("ra", ast.Int64(0), ast.Int64(0))
	del2 := eval.NewTuple("rb", ast.Int64(1), ast.Int64(5))
	e.InjectDeleteAt(600, nsim.NodeID(0), del1)
	e.InjectDeleteAt(1200, nsim.NodeID((5*13+4)%nw.Len()), del2)
	delete(live, del1.Key())
	delete(live, del2.Key())
	nw.Run(0)

	var base []eval.Tuple
	for _, tup := range live {
		base = append(base, tup)
	}
	e.Replay()
	nw.Run(0)
	oracleCompare(t, e, joinSrc, base, "out/2")
}

// timelineSrc reads ra, rb and the windowed rw, and reads the derived
// out, so out's home stores its own generations too; nothing reads lone.
const timelineSrc = `
.base ra/2.
.base rb/2.
.base rw/1.
.base lone/1.
.window rw/1 50.
out(X, Z) :- ra(X, Y), rb(Y, Z).
top(X) :- out(X, Z).
seen(X) :- rw(X).
`

// renderTimeline renders a node's base timeline, a deletion as "-t",
// and checks that the node stamped every generation, in rising Seq
// order, and that a deletion names an insert listed before it.
func renderTimeline(t *testing.T, rt *nodeRT) []string {
	t.Helper()
	var out []string
	inserted := map[window.Stamp]bool{}
	var last int64
	for _, g := range rt.baseTimeline() {
		at := g.stamp()
		if at.Node != int(rt.node.ID) || g.id.Node != int(rt.node.ID) {
			t.Errorf("node %d lists %s stamped %v by another node", rt.node.ID, g.t, at)
		}
		if at.Seq <= last {
			t.Errorf("node %d lists %s at Seq %d after Seq %d", rt.node.ID, g.t, at.Seq, last)
		}
		last = at.Seq
		if g.del == nil {
			inserted[g.id] = true
			out = append(out, g.t.String())
			continue
		}
		if !inserted[g.id] {
			t.Errorf("node %d lists the deletion of %s before its insert", rt.node.ID, g.t)
		}
		out = append(out, "-"+g.t.String())
	}
	return out
}

// A node's base timeline is its base generations in the order it made
// them, read off its own replicas: inserts, a tuple reported again while
// live (both generations), a deletion after its insert; no derived
// generation, nothing for a predicate no rule reads, and nothing for a
// windowed generation once its replica has expired.
func TestBaseTimelineReadsOwnReplicas(t *testing.T) {
	e, nw := buildGrid(t, 4, timelineSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 4})
	ra := eval.NewTuple("ra", ast.Int64(1), ast.Int64(2))
	rb := eval.NewTuple("rb", ast.Int64(2), ast.Int64(3))
	e.InjectAt(10, 0, ra)
	e.InjectAt(20, 0, rb)
	e.InjectAt(30, 0, ra)
	e.InjectAt(40, 0, eval.NewTuple("lone", ast.Int64(7)))
	e.InjectDeleteAt(500, 0, rb)
	nw.Run(0)
	check := func(stage string, want ...string) {
		t.Helper()
		if got := renderTimeline(t, e.rts[0]); !slices.Equal(got, want) {
			t.Errorf("%s: node 0's timeline is %q, want %q", stage, got, want)
		}
		for _, rt := range e.rts[1:] {
			if got := renderTimeline(t, rt); len(got) != 0 {
				t.Errorf("%s: node %d, which generated no base tuple, lists %q", stage, rt.node.ID, got)
			}
		}
	}
	check("after the deletion", "ra(1, 2)", "rb(2, 3)", "ra(1, 2)", "-rb(2, 3)")

	// out(1, 3) was derived and stored at its home under the home's own
	// stamp, so leaving it out of that node's timeline takes the base test.
	ownDerived := false
	for _, rt := range e.rts {
		rt.store.Replicas(func(predKey string, en *window.Entry) {
			ownDerived = ownDerived || predKey == "out/2" && en.ID.Node == int(rt.node.ID)
		})
	}
	if !ownDerived {
		t.Fatal("no node stores a generation of out/2 it made: the derived case is not exercised")
	}

	at := nw.Now() + 10
	e.InjectAt(at, 0, eval.NewTuple("rw", ast.Int64(5)))
	nw.Run(at)
	check("within rw's window", "ra(1, 2)", "rb(2, 3)", "ra(1, 2)", "-rb(2, 3)", "rw(5)")
	nw.Run(0)
	// A generation at node 0 long after rw(5)'s retention expires it
	// there; lone stores nothing, so the timeline gains nothing.
	e.InjectAt(nw.Now()+100_000, 0, eval.NewTuple("lone", ast.Int64(8)))
	nw.Run(0)
	check("after rw's expiry", "ra(1, 2)", "rb(2, 3)", "ra(1, 2)", "-rb(2, 3)")
}
