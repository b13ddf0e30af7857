// Package nsim is a deterministic discrete-event simulator for multi-hop
// radio sensor networks — the stand-in for TOSSIM in the paper's
// evaluation. It models the properties the paper's correctness theorems
// rest on and nothing more exotic: unit-disk radio links, bounded
// per-hop message delays, Bernoulli message loss, per-node local clocks
// with bounded skew (τc), and per-node/per-message accounting for the
// communication-cost experiments.
//
// Time is a virtual int64 tick count. All randomness flows from a single
// seeded source, so every run is reproducible.
package nsim

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
)

// NodeID identifies a node within a network.
type NodeID int

// Time is virtual simulation time in ticks.
type Time int64

// FaultController injects scripted faults into the radio substrate
// (see internal/fault). The simulator consults it on the paths the
// loss/death models already instrument, so an attached controller with
// no active fault perturbs nothing: LinkBlocked extends the loss check
// and DeliveryFault extends the delay draw, and neither consumes the
// network's rng stream (controllers carry their own seeded source).
type FaultController interface {
	// LinkBlocked reports whether a frame from src to dst is cut by an
	// active link fault or partition. Blocked attempts are accounted as
	// drops; ARQ re-attempts them like lost frames.
	LinkBlocked(src, dst NodeID, now Time) bool
	// DeliveryFault perturbs a delivery that survived the loss process:
	// extra is added to the drawn per-hop delay (reordering it behind
	// later traffic) and dup schedules that many duplicate deliveries.
	DeliveryFault(src, dst NodeID, now Time) (extra Time, dup int)
}

// Message is one link-level radio transmission.
type Message struct {
	Src, Dst NodeID
	Kind     string // application-defined discriminator
	Payload  interface{}
	Size     int // accounted bytes (headers included by convention)
}

// Handler is the application running on every node (the compiled user
// program plus system layers, per Figure 2).
type Handler interface {
	// Init runs once after the network is finalized.
	Init(n *Node)
	// Receive handles a delivered message. m is only valid for the
	// duration of the call (the scheduler reuses it between
	// deliveries); retain the Payload, not the Message.
	Receive(n *Node, m *Message)
	// Timer handles an expired timer set with SetTimer.
	Timer(n *Node, key string, data interface{})
}

// MinDelay and MaxDelay bound the per-hop delivery delay: every delivered
// frame takes a uniform draw from [MinDelay, MaxDelay] ticks.
const (
	MinDelay Time = 1
	MaxDelay Time = 4
)

// Config describes the radio and timing model.
type Config struct {
	Range    float64 // radio range (unit disk); default 1.0
	LossRate float64 // per-transmission loss probability
	MaxSkew  Time    // τc: max difference between two local clocks
	Seed     int64   // randomness seed
	// Retries models link-layer ARQ (acknowledge-and-retransmit, as
	// TinyOS link stacks provide): a transmission is re-attempted up to
	// Retries extra times until one copy survives the loss process.
	// Every attempt is accounted as a sent message.
	Retries int

	// Energy model (abstract units; 0 disables). Each transmission costs
	// TxCostBase + TxCostByte·size at the sender and RxCostBase +
	// RxCostByte·size at the receiver; a node whose budget depletes goes
	// Down — the radio dominates mote energy, so computation is free.
	EnergyBudget float64
	TxCostBase   float64
	TxCostByte   float64
	RxCostBase   float64
	RxCostByte   float64
}

func (c *Config) fill() {
	if c.Range == 0 {
		c.Range = 1.0
	}
}

// Node is one sensor node.
type Node struct {
	ID   NodeID
	X, Y float64
	App  Handler

	net       *Network
	skew      Time
	neighbors []NodeID

	// Per-node counters.
	Sent     int64
	Received int64
	BytesOut int64
	BytesIn  int64
	Down     bool // failed nodes neither send nor receive

	// Energy holds the remaining budget when the energy model is on.
	Energy float64
}

// LocalTime returns the node's local clock: global time plus fixed skew.
func (n *Node) LocalTime() Time { return n.net.now + n.skew }

// Now returns the current simulation time at this node (not observable
// by real motes; provided for instrumentation).
func (n *Node) Now() Time { return n.net.now }

// Neighbors returns the IDs of nodes within radio range, sorted.
func (n *Node) Neighbors() []NodeID { return n.neighbors }

// Network returns the owning network (for topology-level helpers).
func (n *Node) Network() *Network { return n.net }

// Send transmits a message to a direct neighbor. Sending to a node out
// of radio range is a programming error and panics (the routing layer
// must only ever hand us neighbors).
func (n *Node) Send(dst NodeID, kind string, payload interface{}, size int) {
	if n.Down {
		return
	}
	if !n.isNeighbor(dst) {
		panic(fmt.Sprintf("nsim: node %d sending to non-neighbor %d", n.ID, dst))
	}
	n.net.transmit(n, dst, kind, payload, size)
}

// Broadcast transmits to every neighbor (one accounted transmission per
// neighbor: the simulator models per-link cost, which upper-bounds a
// physical broadcast and keeps cost comparisons conservative). A sender
// whose energy depletes partway through the neighbor list stops there —
// a dead radio cannot keep transmitting.
func (n *Node) Broadcast(kind string, payload interface{}, size int) {
	for _, d := range n.neighbors {
		if n.Down {
			return
		}
		n.net.transmit(n, d, kind, payload, size)
	}
}

// SetTimer schedules a Timer callback after delay ticks.
func (n *Node) SetTimer(delay Time, key string, data interface{}) {
	if delay < 0 {
		delay = 0
	}
	n.net.scheduleTimer(n.net.now+delay, n.ID, key, data)
}

func (n *Node) isNeighbor(id NodeID) bool {
	for _, d := range n.neighbors {
		if d == id {
			return true
		}
	}
	return false
}

// Network is the simulated network.
type Network struct {
	cfg   Config
	nodes []*Node
	now   Time
	rng   *rand.Rand
	queue eventQueue
	seq   int64
	index *spatialIndex
	// scratch is the reusable delivery Message of the typed event loop
	// (see Handler.Receive); one allocation for the whole run.
	scratch Message

	// Global counters.
	TotalSent    int64
	TotalBytes   int64
	TotalDropped int64
	// kinds counts the transmissions and bytes of each message kind, in
	// order of first use, found by scanning kind names with == (see
	// countKind); KindCounts and KindBytes render them as maps.
	kinds []kindStat
	// TotalRetries counts ARQ re-attempts (transmissions beyond the
	// first attempt of each frame); TotalSent includes them.
	TotalRetries int64
	// EventsProcessed counts events dispatched by Run (all kinds), the
	// denominator for events/sec and allocs/event benchmarks.
	EventsProcessed int64
	finalized       bool

	// trace, when non-nil, records send/recv/drop events (observe.go).
	trace *obs.Trace
	// hQueue, when non-nil, samples the event-queue depth once per
	// dispatched event (attached by Observe when given a registry).
	hQueue *obs.Histogram

	// faults, when non-nil, is consulted on every transmission attempt
	// and delivery (SetFaults).
	faults FaultController

	// Energy-model outcomes.
	Deaths         int64
	FirstDeath     Time // 0 until a node dies
	FirstDeathNode NodeID
}

// New creates an empty network.
func New(cfg Config) *Network {
	cfg.fill()
	return &Network{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		kinds: make([]kindStat, 0, kindCap),
	}
}

// kindStat is the transmission count and byte total of one message kind.
type kindStat struct {
	kind         string
	count, bytes int64
}

// kindCap presizes a network's kind counters: a deployment sends a
// handful of kinds (the distributed engine's node runtime six), so a run
// does not grow the slice.
const kindCap = 8

// countKind accounts one transmission of size bytes of kind. A run
// sends a handful of kinds, each named by one string constant of its
// sender, so the scan is a few pointer compares where a map would hash
// the name twice per frame.
func (nw *Network) countKind(kind string, size int) {
	for i := range nw.kinds {
		if k := &nw.kinds[i]; k.kind == kind {
			k.count++
			k.bytes += int64(size)
			return
		}
	}
	nw.kinds = append(nw.kinds, kindStat{kind: kind, count: 1, bytes: int64(size)})
}

// KindCounts returns the transmissions of each message kind sent so far
// (ARQ re-attempts included), as a new map.
func (nw *Network) KindCounts() map[string]int64 {
	m := make(map[string]int64, len(nw.kinds))
	for _, k := range nw.kinds {
		m[k.kind] = k.count
	}
	return m
}

// KindBytes returns the bytes transmitted of each message kind so far,
// as a new map.
func (nw *Network) KindBytes() map[string]int64 {
	m := make(map[string]int64, len(nw.kinds))
	for _, k := range nw.kinds {
		m[k.kind] = k.bytes
	}
	return m
}

// Config returns the network's configuration.
func (nw *Network) Config() Config { return nw.cfg }

// SetFaults attaches (or, with nil, detaches) a fault controller. The
// controller sees every transmission attempt and surviving delivery;
// detaching restores the fault-free paths exactly.
func (nw *Network) SetFaults(fc FaultController) { nw.faults = fc }

// TraceRecord forwards an event to the attached trace ring (no-op
// without one). Fault controllers use it to log crash/recover and
// link-state transitions next to the radio events they perturb.
func (nw *Network) TraceRecord(e obs.Event) {
	if nw.trace == nil {
		return
	}
	nw.trace.Record(e)
}

// AddNode places a node at (x, y). Must be called before Finalize.
func (nw *Network) AddNode(x, y float64) *Node {
	if nw.finalized {
		panic("nsim: AddNode after Finalize")
	}
	n := &Node{ID: NodeID(len(nw.nodes)), X: x, Y: y, net: nw}
	nw.nodes = append(nw.nodes, n)
	return n
}

// Nodes returns all nodes in ID order.
func (nw *Network) Nodes() []*Node { return nw.nodes }

// Node returns the node with the given ID.
func (nw *Network) Node(id NodeID) *Node { return nw.nodes[id] }

// Len returns the number of nodes.
func (nw *Network) Len() int { return len(nw.nodes) }

// Now returns the current simulation time.
func (nw *Network) Now() Time { return nw.now }

// Finalize computes neighbor lists and clock skews and calls Init on
// every node's handler (in ID order). Neighbor lists come from a
// uniform spatial grid (O(n·deg) instead of the all-pairs O(n²) scan);
// they involve no randomness, so the skew draws that follow consume the
// rng stream in exactly the per-node ID order the original loop did.
func (nw *Network) Finalize() {
	if nw.finalized {
		return
	}
	nw.finalized = true
	nw.buildSpatialIndex()
	// Below the cutoff the all-pairs scan beats assembling per-cell
	// candidate lists (bruteNeighborCutoff, spatial.go); both paths
	// produce identical neighbor lists, and the index is still built
	// for NearestNode.
	if len(nw.nodes) < bruteNeighborCutoff {
		nw.computeNeighborsBrute()
	} else {
		nw.computeNeighbors()
	}
	for _, a := range nw.nodes {
		if nw.cfg.MaxSkew > 0 {
			a.skew = Time(nw.rng.Int63n(int64(nw.cfg.MaxSkew)+1)) - nw.cfg.MaxSkew/2
		}
		a.Energy = nw.cfg.EnergyBudget
	}
	for _, n := range nw.nodes {
		if n.App != nil {
			n.App.Init(n)
		}
	}
}

// transmit accounts and schedules delivery of one link transmission,
// re-attempting up to cfg.Retries times under loss (link-layer ARQ).
// If the attempt that depletes the sender's energy survives the loss
// process it is still delivered (the radio finished that frame before
// dying), but a dead sender never re-attempts a lost frame.
func (nw *Network) transmit(src *Node, dst NodeID, kind string, payload interface{}, size int) {
	if src.Down {
		return
	}
	delivered := false
	for attempt := 0; attempt <= nw.cfg.Retries; attempt++ {
		src.Sent++
		src.BytesOut += int64(size)
		nw.TotalSent++
		nw.TotalBytes += int64(size)
		nw.countKind(kind, size)
		if attempt > 0 {
			nw.TotalRetries++
		}
		if nw.trace != nil {
			nw.trace.Record(obs.Event{At: int64(nw.now), Node: int32(src.ID), Peer: int32(dst), Kind: obs.EvSend, Pred: kind, Size: int32(size)})
		}
		if nw.cfg.EnergyBudget > 0 {
			src.Energy -= nw.cfg.TxCostBase + nw.cfg.TxCostByte*float64(size)
			if src.Energy <= 0 && !src.Down {
				src.Down = true
				nw.Deaths++
				if nw.FirstDeath == 0 {
					nw.FirstDeath = nw.now
					nw.FirstDeathNode = src.ID
				}
			}
		}
		// A faulted link (cut or partition) eats the frame before the loss
		// model sees it; the attempt is accounted as a drop and ARQ
		// re-attempts it like any lost frame.
		if nw.faults != nil && nw.faults.LinkBlocked(src.ID, dst, nw.now) {
			nw.TotalDropped++
			if nw.trace != nil {
				nw.trace.Record(obs.Event{At: int64(nw.now), Node: int32(src.ID), Peer: int32(dst), Kind: obs.EvDrop, Pred: kind, Size: int32(size)})
			}
			if src.Down {
				return
			}
			continue
		}
		if nw.cfg.LossRate > 0 && nw.rng.Float64() < nw.cfg.LossRate {
			nw.TotalDropped++
			if nw.trace != nil {
				nw.trace.Record(obs.Event{At: int64(nw.now), Node: int32(src.ID), Peer: int32(dst), Kind: obs.EvDrop, Pred: kind, Size: int32(size)})
			}
			if src.Down {
				return // ARQ stops at the death boundary
			}
			continue
		}
		delivered = true
		break
	}
	if !delivered {
		return
	}
	delay := MinDelay + Time(nw.rng.Int63n(int64(MaxDelay-MinDelay+1)))
	if nw.faults != nil {
		// Delivery faults: extra delay pushes the frame behind later
		// traffic (reordering); dup schedules link-layer duplicate
		// deliveries of the same frame. Handlers tolerate duplicates by
		// construction — replication is stamp-idempotent and derivations
		// are sets — which is exactly the property the harness probes.
		extra, dup := nw.faults.DeliveryFault(src.ID, dst, nw.now)
		if extra > 0 {
			delay += extra
			if nw.trace != nil {
				nw.trace.Record(obs.Event{At: int64(nw.now), Node: int32(src.ID), Peer: int32(dst), Kind: obs.EvReorder, Pred: kind, Size: int32(size)})
			}
		}
		for i := 0; i < dup; i++ {
			if nw.trace != nil {
				nw.trace.Record(obs.Event{At: int64(nw.now), Node: int32(src.ID), Peer: int32(dst), Kind: obs.EvDup, Pred: kind, Size: int32(size)})
			}
			nw.scheduleDelivery(nw.now+delay, src.ID, dst, kind, payload, size)
		}
	}
	nw.scheduleDelivery(nw.now+delay, src.ID, dst, kind, payload, size)
}

// deliver performs receiver-side accounting and hands the message to the
// destination's handler.
func (nw *Network) deliver(m *Message) {
	d := nw.nodes[m.Dst]
	if d.Down || d.App == nil {
		return
	}
	d.Received++
	d.BytesIn += int64(m.Size)
	if nw.trace != nil {
		nw.trace.Record(obs.Event{At: int64(nw.now), Node: int32(d.ID), Peer: int32(m.Src), Kind: obs.EvRecv, Pred: m.Kind, Size: int32(m.Size)})
	}
	if nw.cfg.EnergyBudget > 0 {
		d.Energy -= nw.cfg.RxCostBase + nw.cfg.RxCostByte*float64(m.Size)
		if d.Energy <= 0 && !d.Down {
			d.Down = true
			nw.Deaths++
			if nw.FirstDeath == 0 {
				nw.FirstDeath = nw.now
				nw.FirstDeathNode = d.ID
			}
		}
	}
	d.App.Receive(d, m)
}

// ScheduleAt runs f at absolute time t (external fact injection, fault
// injection, measurement probes).
func (nw *Network) ScheduleAt(t Time, f func()) {
	if t < nw.now {
		t = nw.now
	}
	nw.schedule(t, f)
}

func (nw *Network) schedule(t Time, f func()) {
	nw.seq++
	nw.queue.push(t, nw.seq, simEvent{kind: evFunc, data: f})
}

// scheduleTimer queues a Handler.Timer callback without allocating a
// closure; the Down check happens at dispatch time.
func (nw *Network) scheduleTimer(t Time, node NodeID, key string, data interface{}) {
	nw.seq++
	nw.queue.push(t, nw.seq, simEvent{kind: evTimer, node: int32(node), str: key, data: data})
}

// scheduleDelivery queues a message delivery; the Message itself is
// constructed at dispatch.
func (nw *Network) scheduleDelivery(t Time, src, dst NodeID, kind string, payload interface{}, size int) {
	nw.seq++
	nw.queue.push(t, nw.seq, simEvent{kind: evDelivery, node: int32(dst), src: int32(src), size: int32(size), str: kind, data: payload})
}

// Run processes events until the queue empties or time exceeds `until`
// (0 means no limit). It returns the final simulation time; a limit
// already behind the clock leaves it where it is. A run that empties
// the queue releases its storage.
func (nw *Network) Run(until Time) Time {
	if !nw.finalized {
		nw.Finalize()
	}
	q := &nw.queue
	for len(q.keys) > 0 {
		if until > 0 && q.keys[0].at > until {
			if until > nw.now {
				nw.now = until
			}
			return nw.now
		}
		at, ev := q.pop()
		if at > nw.now {
			nw.now = at
		}
		nw.EventsProcessed++
		nw.hQueue.Observe(int64(len(q.keys)))
		switch ev.kind {
		case evTimer:
			n := nw.nodes[ev.node]
			if !n.Down {
				n.App.Timer(n, ev.str, ev.data)
			}
		case evDelivery:
			nw.scratch = Message{Src: NodeID(ev.src), Dst: NodeID(ev.node), Kind: ev.str, Payload: ev.data, Size: int(ev.size)}
			nw.deliver(&nw.scratch)
		default:
			ev.data.(func())()
		}
	}
	// A drained queue would keep its high-water keys and slab — about
	// 135 k events, 72 B each, after an 80×80 shortest-path-tree run —
	// for as long as the network lives; let them go.
	nw.queue = eventQueue{}
	return nw.now
}

// Pending reports the number of queued events.
func (nw *Network) Pending() int { return len(nw.queue.keys) }

// MaxNodeLoad returns the maximum (sent + received) over all nodes — the
// hotspot metric of experiment E2.
func (nw *Network) MaxNodeLoad() int64 {
	var max int64
	for _, n := range nw.nodes {
		if l := n.Sent + n.Received; l > max {
			max = l
		}
	}
	return max
}

// NearestNode returns the live node closest to (x, y): an expanding-ring
// walk over the spatial grid once Finalize has built it, the brute-force
// scan before that (e.g. planners placing anchors pre-deployment). Ties
// in distance resolve to the lower node ID in both paths.
func (nw *Network) NearestNode(x, y float64) *Node {
	if nw.index == nil {
		return nw.nearestBrute(x, y)
	}
	return nw.index.nearest(nw, x, y)
}
