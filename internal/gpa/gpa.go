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
	// Centroid: every tuple is stored at one node of the network's
	// centroid region (the nodes around the bounding-box centre), picked
	// by its key; an update's join seeks the centre and floods the
	// region. The scheme PA is compared against in the paper's reference
	// [44] — cheaper paths than PA's rows, but a concentrated hotspot
	// like the central server's, only spread over a few nodes.
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

// Leg is one routed segment of a walk: greedy hops toward (TargetX,
// TargetY). A leg that sweeps acts (replicates or joins) at every node it
// passes, the first included; any other leg only travels.
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

// Plan is what one phase of an update does, starting at its source node,
// which has stored the tuple. A plan with nothing to walk or flood acts
// at the source alone.
type Plan struct {
	// Legs: on a storage plan, each leg is walked from the source by a
	// walker of its own, which stores at every node when the leg sweeps
	// and otherwise where it ends; on a join plan, one walker walks them
	// in order.
	Legs []Leg
	// Sweeps is a join plan's region walked from the source toward each
	// of its ends, one sweeping walker per leg: the same nodes as Legs,
	// each once, without the seek. The engine walks them when no partial
	// result has to accumulate over the region.
	Sweeps []Leg
	// Region is a home region: the storage walk goes to the node of the
	// region that Home picks for the tuple, and stores it there.
	Region []nsim.NodeID
	// FloodTTL and Band bound the flood of a plan with Flood set: the
	// TTL it starts with (it reaches the nodes FloodTTL-1 hops away; 0 is
	// unlimited), and the strip it stays inside.
	FloodTTL int
	Band     *Band
	// Flood: the phase floods from where its legs end (the source, when
	// it has none), acting at every node the flood reaches.
	Flood bool
	// OnArrival: the join runs where the storage walk ends, as it
	// arrives there, and the source runs no join phase.
	OnArrival bool
}

// Home is the node of the plan's home region that stores the tuple with
// key key, picked by a hash of the key.
func (p *Plan) Home(key string) nsim.NodeID {
	h := 0
	for _, c := range key {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return p.Region[h%len(p.Region)]
}

// The Centroid scheme's home region is the nodes within centroidRadius
// radio ranges of the network's bounding-box centre. A join floods it
// from the node nearest the centre with TTL centroidTTL, ⌊centroidRadius⌋
// + 2, which reaches the nodes two hops away.
const (
	centroidRadius = 1.5
	centroidTTL    = 3
)

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

	nw                     *nsim.Network
	minX, minY, maxX, maxY float64
	// region is the Centroid scheme's home region, or the node nearest
	// the centre when no node lies within centroidRadius of it.
	region []nsim.NodeID
}

// NewPlanner returns planner p for the network, whose nodes are placed.
func NewPlanner(nw *nsim.Network, p Planner) *Planner {
	p.nw = nw
	p.minX, p.minY, p.maxX, p.maxY = routing.Bounds(nw)
	if p.Scheme == Centroid {
		r := centroidRadius * nw.Config().Range
		cx, cy := p.centre()
		for _, n := range nw.Nodes() {
			dx, dy := n.X-cx, n.Y-cy
			if dx*dx+dy*dy <= r*r+1e-9 {
				p.region = append(p.region, n.ID)
			}
		}
		if len(p.region) == 0 {
			p.region = []nsim.NodeID{nw.NearestNode(cx, cy).ID}
		}
	}
	return &p
}

// centre is the centre of the network's bounding box.
func (p *Planner) centre() (float64, float64) {
	return (p.minX + p.maxX) / 2, (p.minY + p.maxY) / 2
}

// Storage returns the storage-phase plan for a tuple generated at n.
func (p *Planner) Storage(n *nsim.Node) Plan {
	switch p.Scheme {
	case Perpendicular:
		if p.BandWidth > 0 {
			return Plan{Flood: true, Band: &Band{Axis: 'y', Center: n.Y, Width: p.BandWidth}}
		}
		lo, hi := p.clip(n.X, p.minX, p.maxX)
		return Plan{Legs: []Leg{
			{TargetX: lo, TargetY: n.Y, Sweep: true},
			{TargetX: hi, TargetY: n.Y, Sweep: true},
		}}
	case NaiveBroadcast:
		return Plan{Flood: true}
	case Centralized:
		if n.ID == p.Server {
			return Plan{}
		}
		s := p.nw.Node(p.Server)
		return Plan{Legs: []Leg{{TargetX: s.X, TargetY: s.Y}}}
	case Centroid:
		return Plan{Region: p.region}
	}
	return Plan{} // LocalStorage: the source's replica is the only one
}

// Join returns the join-computation-phase plan for an update at n.
func (p *Planner) Join(n *nsim.Node) Plan {
	switch p.Scheme {
	case Perpendicular:
		if p.BandWidth > 0 {
			return Plan{Flood: true, Band: &Band{Axis: 'x', Center: n.X, Width: p.BandWidth}}
		}
		lo, hi := p.clip(n.Y, p.minY, p.maxY)
		legs := []Leg{
			// Seek to one end of the vertical line, then one sweep pass
			// to the other end (the paper's one-pass scheme)...
			{TargetX: n.X, TargetY: lo, Sweep: false},
			{TargetX: n.X, TargetY: hi, Sweep: true},
			// ...or sweep from n toward both ends.
			{TargetX: n.X, TargetY: lo, Sweep: true},
			{TargetX: n.X, TargetY: hi, Sweep: true},
		}
		return Plan{Legs: legs[:2:2], Sweeps: legs[2:]}
	case LocalStorage:
		return Plan{Flood: true}
	case Centralized:
		return Plan{OnArrival: true} // at the server
	case Centroid:
		// Seek the centre, then flood the home region around it.
		cx, cy := p.centre()
		return Plan{Legs: []Leg{{TargetX: cx, TargetY: cy}}, Flood: true, FloodTTL: centroidTTL}
	}
	return Plan{} // NaiveBroadcast: every replica is at the source
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
