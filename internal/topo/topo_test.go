package topo

import (
	"testing"

	"repro/internal/nsim"
)

func TestGridStructure(t *testing.T) {
	m := 5
	nw := Grid(m, nsim.Config{Seed: 1})
	nw.Finalize()
	if nw.Len() != m*m {
		t.Fatalf("len = %d", nw.Len())
	}
	// Corner has 2 neighbors, edge 3, interior 4.
	corner := nw.Node(GridID(m, 0, 0))
	if len(corner.Neighbors()) != 2 {
		t.Errorf("corner neighbors = %v", corner.Neighbors())
	}
	edge := nw.Node(GridID(m, 2, 0))
	if len(edge.Neighbors()) != 3 {
		t.Errorf("edge neighbors = %v", edge.Neighbors())
	}
	inner := nw.Node(GridID(m, 2, 2))
	if len(inner.Neighbors()) != 4 {
		t.Errorf("inner neighbors = %v", inner.Neighbors())
	}
}

func TestGridIDRoundTrip(t *testing.T) {
	m := 7
	for p := 0; p < m; p++ {
		for q := 0; q < m; q++ {
			id := GridID(m, p, q)
			gp, gq := GridCoords(m, id)
			if gp != p || gq != q {
				t.Fatalf("(%d,%d) -> %d -> (%d,%d)", p, q, id, gp, gq)
			}
		}
	}
}

func TestGridCoordinatesMatchPositions(t *testing.T) {
	m := 4
	nw := Grid(m, nsim.Config{})
	for _, n := range nw.Nodes() {
		p, q := GridCoords(m, n.ID)
		if n.X != float64(p) || n.Y != float64(q) {
			t.Errorf("node %d at (%f,%f), want (%d,%d)", n.ID, n.X, n.Y, p, q)
		}
	}
}

func TestRandomGeometricConnected(t *testing.T) {
	nw, err := RandomGeometric(60, 10, 2.5, 42, nsim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nw.Finalize()
	// Every node has at least one neighbor in a connected graph (n > 1).
	for _, n := range nw.Nodes() {
		if len(n.Neighbors()) == 0 {
			t.Errorf("isolated node %d", n.ID)
		}
	}
}

func TestRandomGeometricImpossible(t *testing.T) {
	// 50 nodes in a huge area with tiny range cannot connect.
	if _, err := RandomGeometric(50, 1000, 0.5, 1, nsim.Config{}); err == nil {
		t.Error("expected failure for sparse placement")
	}
}

func TestRandomGeometricDeterministicPlacement(t *testing.T) {
	a, err := RandomGeometric(30, 8, 2.5, 7, nsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomGeometric(30, 8, 2.5, 7, nsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nodes() {
		if a.Node(nsim.NodeID(i)).X != b.Node(nsim.NodeID(i)).X {
			t.Fatal("placement not deterministic")
		}
	}
}
