package gpa

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/nsim"
	"repro/internal/routing"
	"repro/internal/topo"
)

func planner(t *testing.T, m int, s Scheme) (*Planner, *nsim.Network) {
	t.Helper()
	nw := topo.Grid(m, nsim.Config{})
	nw.Finalize()
	return NewPlanner(nw, Planner{Scheme: s}), nw
}

func TestPerpendicularPlans(t *testing.T) {
	p, nw := planner(t, 6, Perpendicular)
	n := nw.Node(topo.GridID(6, 2, 3))
	st := p.Storage(n)
	if st.Flood || len(st.Legs) != 2 {
		t.Fatalf("storage plan = %+v", st)
	}
	// Both storage legs stay on the node's row and sweep.
	for _, leg := range st.Legs {
		if leg.TargetY != n.Y || !leg.Sweep {
			t.Errorf("storage leg = %+v", leg)
		}
	}
	if st.Legs[0].TargetX != 0 || st.Legs[1].TargetX != 5 {
		t.Errorf("storage legs should span the row: %+v", st.Legs)
	}
	jn := p.Join(n)
	if len(jn.Legs) != 2 {
		t.Fatalf("join plan = %+v", jn)
	}
	if jn.Legs[0].Sweep || !jn.Legs[1].Sweep {
		t.Error("join plan should seek then sweep")
	}
	if jn.Legs[0].TargetX != n.X || jn.Legs[1].TargetX != n.X {
		t.Error("join legs should stay on the column")
	}
	if jn.Legs[0].TargetY != 0 || jn.Legs[1].TargetY != 5 {
		t.Errorf("join legs should span the column: %+v", jn.Legs)
	}
	// The two-way sweep walks the same column from n toward both ends.
	want := []Leg{{TargetX: n.X, TargetY: 0, Sweep: true}, {TargetX: n.X, TargetY: 5, Sweep: true}}
	if !slices.Equal(jn.Sweeps, want) {
		t.Errorf("join sweeps = %+v, want %+v", jn.Sweeps, want)
	}
}

// The GPA invariant: every storage region (row) intersects every
// join-computation region (column) — on the grid, at exactly one node.
func TestRegionsIntersect(t *testing.T) {
	p, nw := planner(t, 5, Perpendicular)
	for _, a := range nw.Nodes() {
		st := p.Storage(a)
		for _, b := range nw.Nodes() {
			jn := p.Join(b)
			// Row of a: y = a.Y, x in [legs0.X, legs1.X]. Column of b:
			// x = b.X, y in [legs0.Y, legs1.Y].
			rowY := a.Y
			colX := b.X
			if colX >= st.Legs[0].TargetX && colX <= st.Legs[1].TargetX &&
				rowY >= jn.Legs[0].TargetY && rowY <= jn.Legs[1].TargetY {
				continue // intersection at (colX, rowY)
			}
			t.Fatalf("row of %v and column of %v do not intersect", a.ID, b.ID)
		}
	}
}

func TestSpatialClipping(t *testing.T) {
	p, nw := planner(t, 9, Perpendicular)
	p.SpatialRadius = 2
	n := nw.Node(topo.GridID(9, 4, 4))
	st := p.Storage(n)
	if st.Legs[0].TargetX != 2 || st.Legs[1].TargetX != 6 {
		t.Errorf("clipped storage legs = %+v", st.Legs)
	}
	jn := p.Join(n)
	if jn.Legs[0].TargetY != 2 || jn.Legs[1].TargetY != 6 {
		t.Errorf("clipped join legs = %+v", jn.Legs)
	}
	// Clipping clamps to the bounding box at the border.
	corner := nw.Node(topo.GridID(9, 0, 0))
	st = p.Storage(corner)
	if st.Legs[0].TargetX != 0 || st.Legs[1].TargetX != 2 {
		t.Errorf("corner storage legs = %+v", st.Legs)
	}
}

// regionOf is a set of nodes a phase acts at.
type regionOf map[nsim.NodeID]bool

// walk follows leg l from node from on the graph, as a walker does, and
// returns the nodes it passes, from included.
func walk(nw *nsim.Network, from nsim.NodeID, l Leg) []nsim.NodeID {
	return routing.GreedyPath(nw, from, l.TargetX, l.TargetY, 4*nw.Len())
}

// flood adds to r the nodes a flood started at from reaches: a BFS that
// goes ttl-1 hops (any number when ttl is 0) and stays inside band when
// one is set.
func (r regionOf) flood(nw *nsim.Network, from nsim.NodeID, ttl int, band *Band) {
	r[from] = true
	frontier := []nsim.NodeID{from}
	for hop := 1; len(frontier) > 0 && (ttl == 0 || hop < ttl); hop++ {
		var next []nsim.NodeID
		for _, id := range frontier {
			for _, nb := range nw.Node(id).Neighbors() {
				n := nw.Node(nb)
				if !r[nb] && (band == nil || band.Contains(n.X, n.Y)) {
					r[nb] = true
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
}

// storedAt expands the storage plan of a tuple with key key generated at
// src into the nodes the plan stores it at on the graph, and the node
// where its storage walk ends (src when nothing walks).
func storedAt(nw *nsim.Network, p Plan, src nsim.NodeID, key string) (regionOf, nsim.NodeID) {
	r, end := regionOf{}, src
	switch {
	case p.Flood:
		r.flood(nw, src, p.FloodTTL, p.Band)
	case p.Region != nil:
		end = p.Home(key)
		r[end] = true
	case p.Legs != nil:
		for _, l := range p.Legs { // each leg a walker from src
			path := walk(nw, src, l)
			end = path[len(path)-1]
			if !l.Sweep {
				path = path[len(path)-1:]
			}
			for _, id := range path {
				r[id] = true
			}
		}
	default:
		r[src] = true
	}
	return r, end
}

// joinedAt expands the join plan of an update at src, whose storage walk
// ended at stored, into the nodes that join it on the graph.
func joinedAt(nw *nsim.Network, p Plan, src, stored nsim.NodeID) regionOf {
	r := regionOf{}
	if p.OnArrival {
		r[stored] = true
		return r
	}
	at := src
	for _, l := range p.Legs { // one walker, leg after leg
		path := walk(nw, at, l)
		if l.Sweep {
			for _, id := range path {
				r[id] = true
			}
		}
		at = path[len(path)-1]
	}
	switch {
	case p.Flood:
		r.flood(nw, at, p.FloodTTL, p.Band)
	case p.Legs == nil:
		r[src] = true
	}
	return r
}

func (r regionOf) meets(o regionOf) bool {
	for id := range r {
		if o[id] {
			return true
		}
	}
	return false
}

// Every scheme's plans, expanded into the nodes they reach on the actual
// graph of a 6x6 grid, satisfy GPA: every storage region meets every join
// region. Each walk is the greedy path a walker takes, each flood a BFS
// within its TTL or band, and each home region its node list. The
// Centroid flood from the centre reaches its whole home region, the
// Centralized scheme stores and joins at the server alone, and no leg
// leaves the network's bounding box.
func TestPlansMeetOnTheGraph(t *testing.T) {
	const m = 6
	server := topo.GridID(m, 2, 3)
	for _, c := range []struct {
		name string
		p    Planner
	}{
		{"perpendicular", Planner{Scheme: Perpendicular}},
		{"band", Planner{Scheme: Perpendicular, BandWidth: 1}},
		{"naive-broadcast", Planner{Scheme: NaiveBroadcast}},
		{"local-storage", Planner{Scheme: LocalStorage}},
		{"centralized", Planner{Scheme: Centralized, Server: server}},
		{"centroid", Planner{Scheme: Centroid}},
	} {
		nw := topo.Grid(m, nsim.Config{})
		nw.Finalize()
		p := NewPlanner(nw, c.p)
		var stored, joined []regionOf
		for _, n := range nw.Nodes() {
			st, jn := p.Storage(n), p.Join(n)
			for _, l := range append(append(st.Legs, jn.Legs...), jn.Sweeps...) {
				if l.TargetX < 0 || l.TargetX > m-1 || l.TargetY < 0 || l.TargetY > m-1 {
					t.Errorf("%s: a plan of node %d targets (%g, %g), outside the network", c.name, n.ID, l.TargetX, l.TargetY)
				}
			}
			s, end := storedAt(nw, st, n.ID, fmt.Sprintf("t%d", n.ID))
			j := joinedAt(nw, jn, n.ID, end)
			if jn.Sweeps != nil {
				both := regionOf{}
				for _, l := range jn.Sweeps {
					for _, id := range walk(nw, n.ID, l) {
						both[id] = true
					}
				}
				if !maps.Equal(both, j) {
					t.Errorf("%s: node %d's two-way sweep reaches %v, its legs %v", c.name, n.ID, both, j)
				}
			}
			for _, id := range st.Region {
				if !j[id] {
					t.Errorf("%s: the join flood of node %d misses home-region node %d", c.name, n.ID, id)
				}
			}
			if c.p.Scheme == Centralized && (!maps.Equal(s, regionOf{server: true}) || !maps.Equal(j, regionOf{server: true})) {
				t.Errorf("%s: node %d stores at %v and joins at %v, want the server %d alone", c.name, n.ID, s, j, server)
			}
			stored, joined = append(stored, s), append(joined, j)
		}
		for a, s := range stored {
			for b, j := range joined {
				if !s.meets(j) {
					t.Fatalf("%s: the storage region of node %d %v misses the join region of node %d %v", c.name, a, s, b, j)
				}
			}
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	names := map[Scheme]string{
		Perpendicular:  "perpendicular",
		NaiveBroadcast: "naive-broadcast",
		LocalStorage:   "local-storage",
		Centralized:    "centralized",
		Scheme(99):     "unknown",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d -> %q, want %q", s, s.String(), want)
		}
	}
}
