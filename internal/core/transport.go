package core

import (
	"math"
	"math/bits"

	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/routing"
)

// The transport: every way a store, join or result frame leaves a node.
// A frame moves in one of two ways. A walker follows its walk — greedy
// geographic hops to a point, to a named node, or along legs some of
// which sweep — and advance takes it one hop. A flood goes to every
// neighbour, or to those inside its band; relay passes it on. send and
// broadcast are where every such frame reaches the radio.

// Message kinds on the wire.
const (
	kindStore  = "store"  // replication / deletion-marker walker or flood
	kindJoin   = "join"   // join-computation walker or flood
	kindResult = "result" // complete result routed to its home node
)

// frame is a message the transport moves: its kind on the wire and its
// size in bytes, link header included.
type frame interface {
	kind() string
	size() int
}

// walk is a walker's route to one target: the target, the path walked
// and the memo of the target's nearest node.
type walk struct {
	// (x, y) is the target point. A walk named for node to ends there
	// (to stands at the point); any other ends at the live node nearest
	// the point.
	x, y float64
	to   *nsim.Node
	// path is the visited set, the walk's origin first; nil until the
	// first hop on a walk that set out without one.
	path []nsim.NodeID
	memo routing.Memo
}

// legWalk is a walk along legs, some of which may sweep: a join
// walker's. Its walk's target is the point of legs[leg], the current
// leg. Only join frames carry legs; store and result frames, which
// have one target, stay smaller.
type legWalk struct {
	walk
	legs []gpa.Leg
	leg  int
}

// along is a walk along legs whose path starts as path.
func along(legs []gpa.Leg, path []nsim.NodeID) legWalk {
	return legWalk{walk: walk{x: legs[0].TargetX, y: legs[0].TargetY, path: path}, legs: legs}
}

// nextLeg starts the next leg at node here and reports whether there was
// one. A new leg is a new walk, so the path restarts at here in the same
// backing array: no other walker shares it (every copy that walks on
// starts its own).
func (w *legWalk) nextLeg(here nsim.NodeID) bool {
	if w.leg+1 >= len(w.legs) {
		return false
	}
	w.leg++
	w.x, w.y = w.legs[w.leg].TargetX, w.legs[w.leg].TargetY
	w.path = append(w.path[:0], here)
	return true
}

// outcome is what one call of advance did with a walker.
type outcome int

const (
	sent     outcome = iota // to the next hop, which joined the path
	arrived                 // this node ends the current leg
	stranded                // every live neighbour is on the path: the walk cannot go on
)

// advance takes the walker of frame f, whose route is w, one hop: it
// reports arrived at the end of the current leg, stranded when greedy
// routing has no hop left (counted in routing.stranded.<kind>), and
// otherwise sends f on. What a stranded walker does is its caller's
// policy.
func (rt *nodeRT) advance(w *walk, f frame) outcome {
	here := rt.node.ID
	if w.to != nil && w.to.ID == here || w.to == nil && rt.e.router.AtTargetMemo(&w.memo, here, w.x, w.y) {
		return arrived
	}
	next, ok := routing.NextHopGreedyAvoid(rt.e.nw, here, w.x, w.y, w.path)
	if !ok {
		rt.e.cStranded[f.kind()].Add(1)
		return stranded
	}
	if w.path == nil {
		// Only now does the walk need its path. The origin is no
		// neighbour of itself, so choosing next without it on the path
		// changed nothing.
		w.path = rt.walkFor(gpa.Leg{TargetX: w.x, TargetY: w.y})
	}
	w.path = append(w.path, next)
	rt.send(next, f.kind(), f, f.size())
	return sent
}

// walkFor starts the path of a walker leaving this node along legs. A new
// leg restarts the path in the same backing array, so it is sized for the
// longest leg: |dx|+|dy| over the radio range, the hop count of a greedy
// walk on a unit grid. No one size fits: on the benchmark workloads paths
// run from 2 nodes (a one-hop result) to over 100 (a result crossing a
// 64x64 grid).
func (rt *nodeRT) walkFor(legs ...gpa.Leg) []nsim.NodeID {
	return append(make([]nsim.NodeID, 0, rt.pathCap(legs...)), rt.node.ID)
}

// pathCap is the capacity walkFor gives the path of a walk along legs.
func (rt *nodeRT) pathCap(legs ...gpa.Leg) int {
	x, y := rt.node.X, rt.node.Y
	var d float64
	for _, l := range legs {
		d = max(d, math.Abs(l.TargetX-x)+math.Abs(l.TargetY-y))
		x, y = l.TargetX, l.TargetY
	}
	return min(int(d/rt.e.nw.Config().Range)+2, rt.e.nw.Len())
}

// pathBuf is one backing array for the paths of walkers leaving this
// node, one walker per leg; startPath cuts each path from the front of
// *buf with the capacity walkFor would give it alone.
func (rt *nodeRT) pathBuf(legs []gpa.Leg) []nsim.NodeID {
	n := 0
	for _, l := range legs {
		n += rt.pathCap(l)
	}
	return make([]nsim.NodeID, 0, n)
}

func (rt *nodeRT) startPath(buf *[]nsim.NodeID, l gpa.Leg) []nsim.NodeID {
	c := rt.pathCap(l)
	path := append((*buf)[:0:c], rt.node.ID)
	*buf = (*buf)[c:c]
	return path
}

// flood is a flood frame's reach. A join walker that carries a TTL floods
// the region around the end of its legs (the Centroid scheme).
type flood struct {
	flooding bool // the frame floods; otherwise it is a walker
	// ttl is the number of hops the frame travels from the node that
	// sent it; 0 is unlimited.
	ttl  int
	band *gpa.Band // if set, the frame travels only inside it
}

func (fl *flood) reach() *flood { return fl }

// floodFrame is a frame that can flood, and can be copied to carry a
// smaller TTL.
type floodFrame interface {
	frame
	reach() *flood
	withTTL(ttl int) floodFrame
}

// relay passes on a flood frame this node has taken in. A frame is
// read-only once sent (every neighbour got the same pointer), so it is
// copied only to carry a decremented TTL; a TTL that runs out ends the
// flood here.
func (rt *nodeRT) relay(f floodFrame) {
	if ttl := f.reach().ttl; ttl > 0 {
		if ttl == 1 {
			return
		}
		f = f.withTTL(ttl - 1)
	}
	rt.broadcast(f)
}

// broadcast sends f to every neighbour, or to those inside its band: one
// radio broadcast, or with batching on one staged send per neighbour, so
// same-tick floods coalesce per link.
func (rt *nodeRT) broadcast(f floodFrame) {
	kind, size, band := f.kind(), f.size(), f.reach().band
	if band == nil && !rt.e.cfg.BatchLinks {
		rt.node.Broadcast(kind, f, size)
		return
	}
	for _, nb := range rt.node.Neighbors() {
		if n := rt.e.nw.Node(nb); band == nil || band.Contains(n.X, n.Y) {
			rt.send(nb, kind, f, size)
		}
	}
}

func (sm *storeMsg) kind() string  { return kindStore }
func (jm *joinMsg) kind() string   { return kindJoin }
func (rm *resultMsg) kind() string { return kindResult }

func (sm *storeMsg) size() int { return sizeOfTuple(sm.Tuple) + linkHeader }

func (jm *joinMsg) size() int {
	n := sizeOfTuple(jm.Update) + 16
	for _, p := range jm.Partials {
		n += 8 + 6*bits.OnesCount64(p.bound)
	}
	for _, c := range jm.Pending {
		n += sizeOfTuple(c.Head) + len(c.DerivKey)
	}
	return n
}

func (rm *resultMsg) size() int {
	return sizeOfTuple(rm.Cand.Head) + len(rm.Cand.DerivKey) + linkHeader
}

func (sm *storeMsg) withTTL(ttl int) floodFrame {
	c := *sm
	c.ttl = ttl
	return &c
}

func (jm *joinMsg) withTTL(ttl int) floodFrame {
	c := *jm
	c.ttl = ttl
	return &c
}

// Batched link transport (Config.BatchLinks).
//
// The node runtime ships one tuple per radio message, which is the
// paper's accounting unit — but a real link layer would coalesce the
// store/join/result traffic a node emits within one tick into a single
// frame per destination. With BatchLinks on, sends are staged in a
// per-node outbox and flushed by a zero-delay self-timer that fires
// after every other event of the current tick (same time, later
// sequence number): everything the tick produced for one destination
// leaves as one kindBatch frame. A frame is accounted as one shared
// link header plus the sum of the per-item payloads (each item sheds
// its own header), so batching strictly reduces both the message count
// and the byte total whenever two items share a destination. Items
// that end up alone in their group are sent unchanged, keeping the
// off/on byte accounting comparable item by item.
//
// Delivery dispatches the items in staging order through the same
// handlers as the unbatched path. Because the per-hop delay is drawn
// once per frame instead of once per item, the interleaving of in-
// flight traffic differs from the unbatched run — the engine's
// finalize machinery (candidates buffered to deadlines, applied in
// update-stamp order) makes the final derived database independent of
// that interleaving, which TestBatchLinksEquivalence pins.

// linkHeader is the per-message link-layer header every wire-size
// estimate in this package includes.
const linkHeader = 8

// kindBatch frames multiple staged items for one destination.
const kindBatch = "batch"

// timerFlush drains the outbox at the end of the current tick.
const timerFlush = "linkflush"

// batchItem is one staged tuple message inside a frame.
type batchItem struct {
	Kind    string
	Payload interface{}
}

// batchMsg is the frame payload.
type batchMsg struct {
	Items []batchItem
}

// BumpHop implements nsim.HopCounter by forwarding the stamp to every
// framed item, so batching keeps per-candidate hop counts intact.
func (bm *batchMsg) BumpHop() {
	for _, it := range bm.Items {
		if hc, ok := it.Payload.(nsim.HopCounter); ok {
			hc.BumpHop()
		}
	}
}

// outItem is a staged send. A consumed entry is marked by clearing its
// kind.
type outItem struct {
	dst     nsim.NodeID
	kind    string
	payload interface{}
	size    int
}

// send transmits a frame, staging it in the outbox when batching is on.
func (rt *nodeRT) send(dst nsim.NodeID, kind string, payload interface{}, size int) {
	if !rt.e.cfg.BatchLinks {
		rt.node.Send(dst, kind, payload, size)
		return
	}
	rt.outbox = append(rt.outbox, outItem{dst: dst, kind: kind, payload: payload, size: size})
	if !rt.flushArmed {
		rt.flushArmed = true
		rt.node.SetTimer(0, timerFlush, nil)
	}
}

// flushOutbox groups the staged items by destination (in first-staged
// order) and transmits each group: singletons unchanged, larger groups
// as one frame of size header + Σ(itemSize − header).
func (rt *nodeRT) flushOutbox() {
	rt.flushArmed = false
	items := rt.outbox
	rt.outbox = rt.outbox[:0]
	for i := range items {
		if items[i].kind == "" {
			continue
		}
		dst := items[i].dst
		group := 1
		for j := i + 1; j < len(items); j++ {
			if items[j].kind != "" && items[j].dst == dst {
				group++
			}
		}
		if group == 1 {
			rt.node.Send(dst, items[i].kind, items[i].payload, items[i].size)
			items[i] = outItem{}
			continue
		}
		bm := &batchMsg{Items: make([]batchItem, 0, group)}
		size := linkHeader
		for j := i; j < len(items); j++ {
			if items[j].kind == "" || items[j].dst != dst {
				continue
			}
			bm.Items = append(bm.Items, batchItem{Kind: items[j].kind, Payload: items[j].payload})
			size += items[j].size - linkHeader
			items[j] = outItem{}
		}
		rt.node.Send(dst, kindBatch, bm, size)
	}
}
