package routing

import (
	"slices"
	"testing"

	"repro/internal/nsim"
	"repro/internal/topo"
)

// walk steps from `from` toward (tx, ty) the way a walker does: one
// NextHopGreedyAvoid hop at a time, the path its own visited set, until
// AtTarget or no hop is left.
func walk(nw *nsim.Network, from nsim.NodeID, tx, ty float64) []nsim.NodeID {
	path := []nsim.NodeID{from}
	for cur := from; !AtTarget(nw, cur, tx, ty); {
		next, ok := NextHopGreedyAvoid(nw, cur, tx, ty, path)
		if !ok {
			break
		}
		path = append(path, next)
		cur = next
	}
	return path
}

func TestGreedyOnGridFollowsRowThenStops(t *testing.T) {
	m := 6
	nw := topo.Grid(m, nsim.Config{Seed: 1})
	nw.Finalize()
	// From (0, 2) toward (5, 2): should walk the row.
	path := walk(nw, topo.GridID(m, 0, 2), 5, 2)
	for _, id := range path {
		if p, q := topo.GridCoords(m, id); q != 2 {
			t.Fatalf("left the row: (%d,%d)", p, q)
		}
	}
	if end := path[len(path)-1]; end != topo.GridID(m, 5, 2) || len(path)-1 != 5 {
		t.Errorf("ended at %d after %d hops", end, len(path)-1)
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
	cur := topo.GridID(m, 0, 0)
	target := topo.GridID(m, 3, 3)
	visited := []nsim.NodeID{cur}
	for i := 0; i < 20 && cur != target; i++ {
		next, ok := NextHopGreedyAvoid(nw, cur, 3, 3, visited)
		if !ok {
			break
		}
		if slices.Contains(visited, next) {
			t.Fatalf("revisited %d", next)
		}
		visited = append(visited, next)
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
	// Kill the direct next hop: no neighbor of (0, 2) improves on it, so
	// the walk detours around the dead node and still arrives.
	dead := topo.GridID(m, 1, 2)
	nw.Node(dead).Down = true
	path := walk(nw, topo.GridID(m, 0, 2), 4, 2)
	if slices.Contains(path, dead) {
		t.Errorf("routed into a down node: %v", path)
	}
	if end := path[len(path)-1]; end != topo.GridID(m, 4, 2) {
		t.Errorf("walk ended at %d, want %d: %v", end, topo.GridID(m, 4, 2), path)
	}
	// With its other neighbors on the path too, (0, 2) has no hop left:
	// the walk is at a local minimum.
	stuck := []nsim.NodeID{topo.GridID(m, 0, 1), topo.GridID(m, 0, 3), topo.GridID(m, 0, 2)}
	if next, ok := NextHopGreedyAvoid(nw, topo.GridID(m, 0, 2), 4, 2, stuck); ok {
		t.Errorf("hop to %d from a node whose live neighbors are all on the path", next)
	}
}
