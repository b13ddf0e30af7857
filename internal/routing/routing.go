// Package routing provides the forwarding primitives the distributed
// engine builds on: detour-tolerant greedy geographic unicast (exact
// row/column routing on grids falls out as a special case, and random
// topologies' small voids are walked around) and the sweep paths used by
// the Generalized Perpendicular Approach's storage and join-computation
// regions.
package routing

import (
	"math"
	"slices"

	"repro/internal/nsim"
)

// NextHopGreedyAvoid picks the neighbor closest to the target among
// those not already visited, even if it does not strictly improve — a
// lightweight detour strategy that, combined with the visited set carried
// in the message, escapes small voids in random geometric graphs. The
// visited set is the walk's path so far, carried as one slice and
// scanned. Past about 8 nodes a scan costs more than a map lookup, but a
// walker's path is one allocation where a map was several. ok is false
// when every live neighbor is already on the path.
func NextHopGreedyAvoid(nw *nsim.Network, from nsim.NodeID, tx, ty float64, visited []nsim.NodeID) (nsim.NodeID, bool) {
	self := nw.Node(from)
	best := from
	bestD := math.Inf(1)
	for _, nb := range self.Neighbors() {
		n := nw.Node(nb)
		if n.Down || slices.Contains(visited, nb) {
			continue
		}
		d := dist(n.X, n.Y, tx, ty)
		if d < bestD {
			best, bestD = nb, d
		}
	}
	return best, best != from
}

// GreedyPath enumerates the greedy route from `from` to the node nearest
// (tx, ty), using the avoid strategy, bounded by maxHops; the path is
// its own visited set. Used by tests and by region precomputation.
func GreedyPath(nw *nsim.Network, from nsim.NodeID, tx, ty float64, maxHops int) []nsim.NodeID {
	path := []nsim.NodeID{from}
	cur := from
	target := nw.NearestNode(tx, ty)
	for hops := 0; hops < maxHops; hops++ {
		if target != nil && cur == target.ID {
			return path
		}
		next, ok := NextHopGreedyAvoid(nw, cur, tx, ty, path)
		if !ok {
			return path
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// AtTarget reports whether node id is the closest live node to (tx, ty) —
// the termination test for geographic unicast.
func AtTarget(nw *nsim.Network, id nsim.NodeID, tx, ty float64) bool {
	n := nw.NearestNode(tx, ty)
	return n != nil && n.ID == id
}

func dist(x1, y1, x2, y2 float64) float64 {
	return math.Hypot(x1-x2, y1-y2)
}

// Engine caches routing decisions for one network. Geographic unicast
// asks "is this node the one nearest the target?" on every hop of every
// message, and the GPA sweep schemes reuse a small set of target points
// (storage columns, join rows, the server position) millions of times —
// so the engine memoizes NearestNode per target point. The cache is
// sound because node positions are fixed after Finalize and Down
// transitions are monotone (nodes never revive): the nearest node to a
// point can only change when that node itself dies, so a cached entry is
// revalidated with a single Down check and recomputed only then.
type Engine struct {
	nw      *nsim.Network
	nearest map[[2]float64]nsim.NodeID
	// Scratch visited set for GreedyPath, reused across calls: stamp[i]
	// == epoch marks node i visited in the current walk. Resetting is
	// one integer increment instead of a fresh map per routed path.
	stamp []int64
	epoch int64

	// Cache effectiveness counters, exposed as routing.nearest_hits /
	// routing.nearest_misses in the core engine's obs provider.
	Hits   int64
	Misses int64
}

// NewEngine creates a routing engine for nw.
func NewEngine(nw *nsim.Network) *Engine {
	return &Engine{nw: nw, nearest: make(map[[2]float64]nsim.NodeID)}
}

// Invalidate drops every cached nearest-node entry (the counters are
// kept). The Down-check revalidation above is sound only while Down
// transitions are monotone; fault injection recovers nodes, and a cache
// entry computed while the true nearest node was down would otherwise
// keep routing around it forever. Core's replay pass calls this after
// the fault schedule heals.
func (e *Engine) Invalidate() {
	clear(e.nearest)
}

// NearestNode returns the live node closest to (x, y), memoized per
// target point.
func (e *Engine) NearestNode(x, y float64) *nsim.Node {
	key := [2]float64{x, y}
	if id, ok := e.nearest[key]; ok {
		if n := e.nw.Node(id); !n.Down {
			e.Hits++
			return n
		}
	}
	e.Misses++
	n := e.nw.NearestNode(x, y)
	if n == nil {
		return nil
	}
	e.nearest[key] = n.ID
	return n
}

// AtTarget reports whether node id is the closest live node to (tx, ty),
// using the nearest cache.
func (e *Engine) AtTarget(id nsim.NodeID, tx, ty float64) bool {
	n := e.NearestNode(tx, ty)
	return n != nil && n.ID == id
}

// GreedyPath is the engine counterpart of the package function, testing
// membership against the reusable stamp array instead of scanning the
// path: a route across a grid runs to tens of nodes, where the scan
// makes a whole route about 4x slower.
func (e *Engine) GreedyPath(from nsim.NodeID, tx, ty float64, maxHops int) []nsim.NodeID {
	if len(e.stamp) < e.nw.Len() {
		e.stamp = make([]int64, e.nw.Len())
	}
	e.epoch++
	e.stamp[from] = e.epoch
	path := []nsim.NodeID{from}
	cur := from
	target := e.NearestNode(tx, ty)
	for hops := 0; hops < maxHops; hops++ {
		if target != nil && cur == target.ID {
			return path
		}
		next, ok := e.nextHopAvoid(cur, tx, ty)
		if !ok {
			return path
		}
		e.stamp[next] = e.epoch
		path = append(path, next)
		cur = next
	}
	return path
}

// nextHopAvoid is NextHopGreedyAvoid against the engine's stamp set.
func (e *Engine) nextHopAvoid(from nsim.NodeID, tx, ty float64) (nsim.NodeID, bool) {
	self := e.nw.Node(from)
	best := from
	bestD := math.Inf(1)
	for _, nb := range self.Neighbors() {
		n := e.nw.Node(nb)
		if n.Down || e.stamp[nb] == e.epoch {
			continue
		}
		d := dist(n.X, n.Y, tx, ty)
		if d < bestD {
			best, bestD = nb, d
		}
	}
	return best, best != from
}

// Bounds returns the bounding box of the network's node positions.
func Bounds(nw *nsim.Network) (minX, minY, maxX, maxY float64) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, n := range nw.Nodes() {
		minX = math.Min(minX, n.X)
		minY = math.Min(minY, n.Y)
		maxX = math.Max(maxX, n.X)
		maxY = math.Max(maxY, n.Y)
	}
	return
}
