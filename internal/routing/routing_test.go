package routing

import (
	"testing"

	"repro/internal/nsim"
	"repro/internal/topo"
)

func TestGreedyOnGridFollowsRowThenStops(t *testing.T) {
	m := 6
	nw := topo.Grid(m, nsim.Config{Seed: 1})
	nw.Finalize()
	// From (0, 2) toward (5, 2): should walk the row.
	cur := topo.GridID(m, 0, 2)
	hops := 0
	for {
		next, ok := NextHopGreedy(nw, cur, 5, 2)
		if !ok {
			break
		}
		p, q := topo.GridCoords(m, next)
		if q != 2 {
			t.Fatalf("left the row: (%d,%d)", p, q)
		}
		cur = next
		hops++
	}
	if cur != topo.GridID(m, 5, 2) || hops != 5 {
		t.Errorf("ended at %d after %d hops", cur, hops)
	}
}

func TestGreedyPathVisitsEveryColumnNode(t *testing.T) {
	m := 5
	nw := topo.Grid(m, nsim.Config{Seed: 1})
	nw.Finalize()
	// Column sweep: from (3, 0) to (3, m-1) — the PA join-computation
	// region must visit all nodes of the column.
	path := GreedyPath(nw, topo.GridID(m, 3, 0), 3, float64(m-1), 100)
	if len(path) != m {
		t.Fatalf("path = %v", path)
	}
	for i, id := range path {
		p, q := topo.GridCoords(m, id)
		if p != 3 || q != i {
			t.Errorf("hop %d at (%d,%d)", i, p, q)
		}
	}
}

func TestGreedyAvoidEscapesRepeats(t *testing.T) {
	m := 4
	nw := topo.Grid(m, nsim.Config{Seed: 1})
	nw.Finalize()
	visited := map[nsim.NodeID]bool{}
	cur := topo.GridID(m, 0, 0)
	target := topo.GridID(m, 3, 3)
	visited[cur] = true
	for i := 0; i < 20 && cur != target; i++ {
		next, ok := NextHopGreedyAvoid(nw, cur, 3, 3, visited)
		if !ok {
			break
		}
		if visited[next] {
			t.Fatalf("revisited %d", next)
		}
		visited[next] = true
		cur = next
	}
	if cur != target {
		t.Errorf("ended at %d", cur)
	}
}

func TestGreedyOnRandomTopologyReachesTarget(t *testing.T) {
	nw, err := topo.RandomGeometric(50, 10, 2.8, 11, nsim.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	nw.Finalize()
	target := nw.NearestNode(9.5, 9.5)
	path := GreedyPath(nw, 0, 9.5, 9.5, 200)
	if path[len(path)-1] != target.ID {
		t.Errorf("greedy-avoid did not reach target: path end %d, want %d", path[len(path)-1], target.ID)
	}
}

func TestAtTarget(t *testing.T) {
	nw := topo.Grid(3, nsim.Config{})
	nw.Finalize()
	if !AtTarget(nw, topo.GridID(3, 1, 1), 1.2, 1.1) {
		t.Error("center node should be target for (1.2, 1.1)")
	}
	if AtTarget(nw, topo.GridID(3, 0, 0), 2, 2) {
		t.Error("corner should not be target for (2,2)")
	}
}

func TestDedup(t *testing.T) {
	// Keyed the way the engine keys it: a comparable struct, no rendering.
	type frame struct {
		join bool
		seq  int64
	}
	var d Dedup[frame]
	if d.Check(frame{seq: 1}) {
		t.Error("first occurrence reported duplicate")
	}
	if !d.Check(frame{seq: 1}) {
		t.Error("second occurrence not detected")
	}
	if d.Check(frame{join: true, seq: 1}) {
		t.Error("unseen id reported duplicate")
	}
	if d.Len() != 2 {
		t.Errorf("len = %d", d.Len())
	}
}

func TestBounds(t *testing.T) {
	nw := topo.Grid(4, nsim.Config{})
	minX, minY, maxX, maxY := Bounds(nw)
	if minX != 0 || minY != 0 || maxX != 3 || maxY != 3 {
		t.Errorf("bounds = %v %v %v %v", minX, minY, maxX, maxY)
	}
}

func TestGreedySkipsDownNodes(t *testing.T) {
	m := 5
	nw := topo.Grid(m, nsim.Config{Seed: 3})
	nw.Finalize()
	// Kill the direct next hop: strict greedy hits a local minimum (no
	// neighbor improves), while the avoid variant detours around it.
	dead := topo.GridID(m, 1, 2)
	nw.Node(dead).Down = true
	if _, ok := NextHopGreedy(nw, topo.GridID(m, 0, 2), 4, 2); ok {
		t.Error("strict greedy should report a local minimum here")
	}
	next, ok := NextHopGreedyAvoid(nw, topo.GridID(m, 0, 2), 4, 2,
		map[nsim.NodeID]bool{topo.GridID(m, 0, 2): true})
	if !ok {
		t.Fatal("avoid variant found no hop")
	}
	if next == dead {
		t.Error("routed into a down node")
	}
}
