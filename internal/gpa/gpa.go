// Package gpa implements the region planning of the Generalized
// Perpendicular Approach (Section III-A): for each in-network join scheme
// it decides where a tuple's replicas are stored (the storage region) and
// which nodes an update's join-computation pass visits (the
// join-computation region), such that every storage region intersects
// every join-computation region.
//
// On the m×m grid the Perpendicular scheme reduces exactly to the paper's
// construction — rows for storage, columns for join computation; on
// arbitrary connected topologies the rows/columns generalize to greedy
// horizontal/vertical sweep paths (the notion of intersecting horizontal
// and vertical paths the paper defers to [44]).
package gpa

import (
	"repro/internal/nsim"
	"repro/internal/routing"
)

// Scheme selects the storage/join-region trade-off.
type Scheme int

const (
	// Perpendicular: store along the horizontal sweep through the source,
	// join along the vertical sweep — the paper's PA.
	Perpendicular Scheme = iota
	// NaiveBroadcast: storage region = whole network (flooded replicas),
	// join-computation region = the local node (degenerate GPA case (i)).
	NaiveBroadcast
	// LocalStorage: storage region = the local node, join-computation
	// region = whole network (degenerate GPA case (ii)).
	LocalStorage
	// Centralized: every tuple is unicast to a central server that joins
	// locally — the non-GPA baseline whose hotspot motivates PA.
	Centralized
	// Centroid: every tuple is routed to the network's centroid region
	// (the central node and its radio neighborhood) and replicated
	// there; joins run locally within the region. The scheme PA is
	// compared against in the paper's reference [44] — cheaper paths
	// than PA's rows, but a concentrated hotspot like the central
	// server's, only spread over a few nodes.
	Centroid
)

func (s Scheme) String() string {
	switch s {
	case Perpendicular:
		return "perpendicular"
	case NaiveBroadcast:
		return "naive-broadcast"
	case LocalStorage:
		return "local-storage"
	case Centralized:
		return "centralized"
	case Centroid:
		return "centroid"
	}
	return "unknown"
}

// Leg is one routed segment of a phase: walk greedily toward Target;
// when Sweep is set, act (replicate or join) at every node on the way,
// otherwise only travel.
type Leg struct {
	TargetX, TargetY float64
	Sweep            bool
}

// Band is a geographic strip used to generalize PA's rows/columns to
// arbitrary topologies: the region is every node whose coordinate on the
// axis lies within Width/2 of Center, flood-connected from the source.
// A horizontal band (Axis 'y') generalizes a storage row; a vertical band
// (Axis 'x') generalizes a join column. Bands always intersect
// geometrically, restoring the GPA invariant off-grid.
type Band struct {
	Axis   byte // 'x' or 'y': which coordinate is constrained
	Center float64
	Width  float64
}

// Contains reports whether (x, y) lies in the band.
func (b Band) Contains(x, y float64) bool {
	v := x
	if b.Axis == 'y' {
		v = y
	}
	d := v - b.Center
	if d < 0 {
		d = -d
	}
	return d <= b.Width/2+1e-9
}

// Plan is the set of legs a phase executes, starting at the source node.
// Flood=true replaces legs with a network flood (TTL-limited when
// FloodTTL > 0); Local=true means the phase acts only at the local node;
// Band!=nil replaces legs with a band-scoped flood.
type Plan struct {
	Legs     []Leg
	Flood    bool
	FloodTTL int // 0 = unlimited
	Local    bool
	Band     *Band
}

// Planner computes phase plans for a network and scheme.
type Planner struct {
	Scheme Scheme
	// Server is the central server node for the Centralized scheme.
	Server nsim.NodeID
	// SpatialRadius bounds storage and join regions to a band of this
	// radius around the source when > 0 — the spatial-constraint
	// optimization of Section III-A.
	SpatialRadius float64
	// BandWidth switches the Perpendicular scheme's rows/columns to
	// geographic bands of this width (for arbitrary topologies where
	// greedy row/column walks need not intersect). 0 keeps path sweeps
	// (exact on grids).
	BandWidth float64

	minX, minY, maxX, maxY float64
}

// NewPlanner builds a planner over the network's bounding box.
func NewPlanner(nw *nsim.Network, scheme Scheme) *Planner {
	p := &Planner{Scheme: scheme}
	p.minX, p.minY, p.maxX, p.maxY = routing.Bounds(nw)
	return p
}

// Storage returns the storage-phase plan for a tuple generated at n.
func (p *Planner) Storage(n *nsim.Node) Plan {
	switch p.Scheme {
	case Perpendicular:
		if p.BandWidth > 0 {
			return Plan{Band: &Band{Axis: 'y', Center: n.Y, Width: p.BandWidth}}
		}
		lo, hi := p.clip(n.X, p.minX, p.maxX)
		return Plan{Legs: []Leg{
			{TargetX: lo, TargetY: n.Y, Sweep: true},
			{TargetX: hi, TargetY: n.Y, Sweep: true},
		}}
	case NaiveBroadcast:
		return Plan{Flood: true}
	case LocalStorage:
		return Plan{Local: true}
	case Centralized:
		return Plan{Legs: []Leg{{TargetX: -1, TargetY: -1, Sweep: false}}} // resolved by engine to server
	case Centroid:
		// Route to the centroid; the engine replicates one hop around it.
		cx := (p.minX + p.maxX) / 2
		cy := (p.minY + p.maxY) / 2
		return Plan{Legs: []Leg{{TargetX: cx, TargetY: cy, Sweep: false}}}
	}
	return Plan{Local: true}
}

// Join returns the join-computation-phase plan for an update at n.
func (p *Planner) Join(n *nsim.Node) Plan {
	switch p.Scheme {
	case Perpendicular:
		if p.BandWidth > 0 {
			return Plan{Band: &Band{Axis: 'x', Center: n.X, Width: p.BandWidth}}
		}
		lo, hi := p.clip(n.Y, p.minY, p.maxY)
		return Plan{Legs: []Leg{
			// Seek to one end of the vertical line, then one sweep pass
			// to the other end (the paper's one-pass scheme). When no
			// partial has to accumulate over the column, the engine
			// instead sweeps from n toward both ends, one walker per
			// end: the same nodes, each once, without the seek.
			{TargetX: n.X, TargetY: lo, Sweep: false},
			{TargetX: n.X, TargetY: hi, Sweep: true},
		}}
	case NaiveBroadcast:
		return Plan{Local: true}
	case LocalStorage:
		return Plan{Flood: true}
	case Centralized:
		return Plan{Local: true} // the server joins on arrival
	case Centroid:
		return Plan{Local: true} // the centroid region joins on arrival
	}
	return Plan{Local: true}
}

// clip bounds a sweep interval around c by the spatial radius.
func (p *Planner) clip(c, lo, hi float64) (float64, float64) {
	if p.SpatialRadius <= 0 {
		return lo, hi
	}
	l, h := c-p.SpatialRadius, c+p.SpatialRadius
	if l < lo {
		l = lo
	}
	if h > hi {
		h = hi
	}
	return l, h
}
