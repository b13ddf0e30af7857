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
// visited set is the walk's path so far, carried as one slice: a
// walker's path is one allocation where a map was several. ok is false
// when every live neighbor is already on the path.
//
// The path is scanned once per hop, not once per neighbor. The first
// strict minimum over all live neighbors, if it is not on the path, is
// also the first strict minimum over the live neighbors not on the path:
// every neighbor before it is farther, and every neighbor after it is no
// nearer. So the nearest live neighbor is found first and only that
// winner is checked against the path; the neighbors are rescanned with
// the path test only when the winner was visited, which on a greedy walk
// toward a fixed target is the rare case of a detour.
func NextHopGreedyAvoid(nw *nsim.Network, from nsim.NodeID, tx, ty float64, visited []nsim.NodeID) (nsim.NodeID, bool) {
	nbs := nw.Node(from).Neighbors()
	best := nearestNeighbor(nw, nbs, from, tx, ty, nil)
	if best == from || !slices.Contains(visited, best) {
		return best, best != from
	}
	best = nearestNeighbor(nw, nbs, from, tx, ty, visited)
	return best, best != from
}

// nearestNeighbor returns the first of nbs, in order, at the least
// distance from (tx, ty) among those live and not in skip, or from when
// there is none.
func nearestNeighbor(nw *nsim.Network, nbs []nsim.NodeID, from nsim.NodeID, tx, ty float64, skip []nsim.NodeID) nsim.NodeID {
	best := from
	bestD := math.Inf(1)
	for _, nb := range nbs {
		n := nw.Node(nb)
		if n.Down || slices.Contains(skip, nb) {
			continue
		}
		if d := dist(n.X, n.Y, tx, ty); d < bestD {
			best, bestD = nb, d
		}
	}
	return best
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
// so the engine memoizes NearestNode per target point. Node positions are
// fixed after Finalize, so the nearest node to a point changes only when
// a node goes down or comes back up. A cached entry is revalidated with a
// single Down check and recomputed when its node is down. Downs are not
// monotone — fault injection recovers nodes — and a revival is not
// noticed: an entry computed while the true nearest node was down keeps
// answering the live node that replaced it until Invalidate drops it.
//
// Every recompute of an entry (its node was found down) and every
// Invalidate advances the engine's generation; a first compute of a
// point's entry does not, since it changes no entry that exists. A
// walker keeps a Memo of its target's nearest node stamped with the
// generation it was read at. While that generation stands, no entry
// that existed then has been rewritten or dropped, and the memo's entry
// existed (the memo was read from it), so the memo still holds the
// cache's entry for its point and AtTargetMemo answers from it without
// hashing.
type Engine struct {
	nw      *nsim.Network
	nearest map[[2]float64]nsim.NodeID
	gen     uint64

	// Cache effectiveness counters, exposed as routing.nearest_hits /
	// routing.nearest_misses in the core engine's obs provider.
	Hits   int64
	Misses int64
}

// Memo is a walker's copy of the engine's nearest-node entry for its
// target point, valid while the engine's generation is gen. The zero
// Memo is valid for no generation (an engine starts at generation 1).
type Memo struct {
	x, y float64
	node nsim.NodeID
	gen  uint64
}

// NewEngine creates a routing engine for nw.
func NewEngine(nw *nsim.Network) *Engine {
	return &Engine{nw: nw, nearest: make(map[[2]float64]nsim.NodeID), gen: 1}
}

// Invalidate drops every cached nearest-node entry (the counters are
// kept) and with them every Memo. The Down-check revalidation above
// does not see a node come back up; fault injection recovers nodes, and
// a cache entry computed while the true nearest node was down would
// otherwise keep routing around it forever. Core's replay pass calls
// this after the fault schedule heals.
func (e *Engine) Invalidate() {
	clear(e.nearest)
	e.gen++
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
		e.gen++ // the entry is recomputed: every Memo of it is stale
	}
	e.Misses++
	n := e.nw.NearestNode(x, y)
	if n == nil {
		return nil
	}
	e.nearest[key] = n.ID
	return n
}

// AtTargetMemo reports whether node id is the closest live node to
// (tx, ty) by the nearest cache, for a walker that carries m from hop to
// hop: it gives NearestNode's answer and counts the same hit or miss.
// While m is of the current generation and for (tx, ty), m.node is the
// cache's entry for the point, so the hit is answered from m with the
// cache's own Down check; otherwise the cache answers and m is
// refreshed.
func (e *Engine) AtTargetMemo(m *Memo, id nsim.NodeID, tx, ty float64) bool {
	if m.gen == e.gen && m.x == tx && m.y == ty && !e.nw.Node(m.node).Down {
		e.Hits++
		return m.node == id
	}
	n := e.NearestNode(tx, ty)
	if n == nil {
		return false
	}
	*m = Memo{x: tx, y: ty, node: n.ID, gen: e.gen}
	return n.ID == id
}

// GreedyPath is the engine counterpart of the package function: the
// target is found through the nearest cache, and every hop is the
// NextHopGreedyAvoid decision a walker makes.
func (e *Engine) GreedyPath(from nsim.NodeID, tx, ty float64, maxHops int) []nsim.NodeID {
	path := []nsim.NodeID{from}
	cur := from
	target := e.NearestNode(tx, ty)
	for hops := 0; hops < maxHops; hops++ {
		if target != nil && cur == target.ID {
			return path
		}
		next, ok := NextHopGreedyAvoid(e.nw, cur, tx, ty, path)
		if !ok {
			return path
		}
		path = append(path, next)
		cur = next
	}
	return path
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
