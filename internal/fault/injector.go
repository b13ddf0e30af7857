package fault

import (
	"math/rand"
	"sync/atomic"

	"repro/internal/nsim"
	"repro/internal/obs"
)

// Counts is the injector's bookkeeping: one field per fault effect,
// incremented at exactly the sites that record the matching trace
// event, so trace aggregates and bookkeeping can be cross-checked the
// same way the radio counters are checked against the trace ring.
type Counts struct {
	Crashes    int64 // EvCrash: node transitions up -> down
	Recovers   int64 // EvRecover: node transitions down -> up
	LinkDowns  int64 // EvLinkDown: link windows + partitions opening
	LinkUps    int64 // EvLinkUp: link windows + partitions closing
	Blocked    int64 // transmission attempts eaten by a cut or partition
	Duplicated int64 // EvDup: deliveries duplicated
	Reordered  int64 // EvReorder: deliveries delayed past their slot
}

// linkKey canonically orders a symmetric link.
type linkKey struct{ lo, hi nsim.NodeID }

func mkLinkKey(a, b nsim.NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{lo: a, hi: b}
}

// activePart is an open partition: membership decides which frames
// cross the cut.
type activePart struct {
	idx     int // index into Schedule.parts (close removes by index)
	members map[nsim.NodeID]bool
}

// Injector applies a Schedule to a network. Create with Attach; read
// Counts after the run. The injector implements nsim.FaultController.
type Injector struct {
	nw    *nsim.Network
	sched *Schedule
	rng   *rand.Rand

	cuts     map[linkKey]int // active cut multiplicity per link
	cutCount int             // total active cuts (fast path gate)
	active   []activePart

	// Counts is the fault bookkeeping (see the type).
	Counts Counts
}

// Attach schedules every transition of s onto nw, installs the
// injector as the network's fault controller and returns it. The
// probabilistic windows draw from a dedicated rng seeded with seed;
// the network's own randomness stream is never touched, so a run with
// an empty schedule is byte-identical to an unfaulted run.
func Attach(nw *nsim.Network, s *Schedule, seed int64) *Injector {
	in := &Injector{
		nw:    nw,
		sched: s,
		rng:   rand.New(rand.NewSource(seed)),
		cuts:  make(map[linkKey]int),
	}
	for _, e := range s.crashes {
		e := e
		nw.ScheduleAt(e.At, func() { in.crash(e.Node) })
	}
	for _, e := range s.recovers {
		e := e
		nw.ScheduleAt(e.At, func() { in.recover(e.Node) })
	}
	for _, w := range s.links {
		w := w
		nw.ScheduleAt(w.From, func() { in.linkDown(w.A, w.B) })
		nw.ScheduleAt(w.To, func() { in.linkUp(w.A, w.B) })
	}
	for i, w := range s.parts {
		i, w := i, w
		nw.ScheduleAt(w.From, func() { in.partOpen(i, w.Group) })
		nw.ScheduleAt(w.To, func() { in.partClose(i) })
	}
	nw.SetFaults(in)
	return in
}

// crash takes a node down (transition-counted: a node already down —
// crashed twice by overlapping windows — is left alone, so Counts and
// the trace agree however the schedule overlaps).
func (in *Injector) crash(id nsim.NodeID) {
	n := in.nw.Node(id)
	if n.Down {
		return
	}
	n.Down = true
	in.Counts.Crashes++
	in.nw.TraceRecord(obs.Event{At: int64(in.nw.Now()), Node: int32(id), Peer: -1, Kind: obs.EvCrash, Pred: "fault"})
}

func (in *Injector) recover(id nsim.NodeID) {
	n := in.nw.Node(id)
	if !n.Down {
		return
	}
	n.Down = false
	in.Counts.Recovers++
	in.nw.TraceRecord(obs.Event{At: int64(in.nw.Now()), Node: int32(id), Peer: -1, Kind: obs.EvRecover, Pred: "fault"})
}

func (in *Injector) linkDown(a, b nsim.NodeID) {
	in.cuts[mkLinkKey(a, b)]++
	in.cutCount++
	in.Counts.LinkDowns++
	in.nw.TraceRecord(obs.Event{At: int64(in.nw.Now()), Node: int32(a), Peer: int32(b), Kind: obs.EvLinkDown, Pred: "link"})
}

func (in *Injector) linkUp(a, b nsim.NodeID) {
	k := mkLinkKey(a, b)
	if in.cuts[k] > 0 {
		in.cuts[k]--
		in.cutCount--
	}
	in.Counts.LinkUps++
	in.nw.TraceRecord(obs.Event{At: int64(in.nw.Now()), Node: int32(a), Peer: int32(b), Kind: obs.EvLinkUp, Pred: "link"})
}

func (in *Injector) partOpen(idx int, group []nsim.NodeID) {
	m := make(map[nsim.NodeID]bool, len(group))
	for _, id := range group {
		m[id] = true
	}
	in.active = append(in.active, activePart{idx: idx, members: m})
	in.Counts.LinkDowns++
	in.nw.TraceRecord(obs.Event{At: int64(in.nw.Now()), Node: -1, Peer: -1, Kind: obs.EvLinkDown, Pred: "partition"})
}

func (in *Injector) partClose(idx int) {
	for i, p := range in.active {
		if p.idx == idx {
			in.active = append(in.active[:i], in.active[i+1:]...)
			break
		}
	}
	in.Counts.LinkUps++
	in.nw.TraceRecord(obs.Event{At: int64(in.nw.Now()), Node: -1, Peer: -1, Kind: obs.EvLinkUp, Pred: "partition"})
}

// LinkBlocked implements nsim.FaultController: a frame is blocked by
// an active cut on its link or by crossing an open partition boundary.
func (in *Injector) LinkBlocked(src, dst nsim.NodeID, now nsim.Time) bool {
	if in.cutCount > 0 && in.cuts[mkLinkKey(src, dst)] > 0 {
		atomic.AddInt64(&in.Counts.Blocked, 1)
		return true
	}
	for _, p := range in.active {
		if p.members[src] != p.members[dst] {
			atomic.AddInt64(&in.Counts.Blocked, 1)
			return true
		}
	}
	return false
}

// DeliveryFault implements nsim.FaultController: inside an active
// reorder window the delivery is delayed by 1..MaxExtra extra ticks
// with the window's probability; inside an active duplicate window a
// duplicate delivery is scheduled with the window's probability. All
// draws come from the injector's rng and only happen while a window is
// active, so an idle schedule consumes nothing. Schedule windows are
// read-only after Attach; the counters are updated atomically.
func (in *Injector) DeliveryFault(src, dst nsim.NodeID, now nsim.Time) (extra nsim.Time, dup int) {
	for _, w := range in.sched.reorders {
		if now >= w.From && now < w.To && in.rng.Float64() < w.Prob {
			extra += 1 + nsim.Time(in.rng.Int63n(int64(w.MaxExtra)))
		}
	}
	if extra > 0 {
		atomic.AddInt64(&in.Counts.Reordered, 1)
	}
	for _, w := range in.sched.dups {
		if now >= w.From && now < w.To && in.rng.Float64() < w.Prob {
			dup++
		}
	}
	if dup > 0 {
		atomic.AddInt64(&in.Counts.Duplicated, int64(dup))
	}
	return extra, dup
}

// Observe registers the injector's bookkeeping as snapshot-time
// providers under the "fault." prefix, next to the "nsim." and "core."
// counters.
func (in *Injector) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Provide(func(emit func(name string, v int64)) {
		emit("fault.crashes", in.Counts.Crashes)
		emit("fault.recovers", in.Counts.Recovers)
		emit("fault.link_downs", in.Counts.LinkDowns)
		emit("fault.link_ups", in.Counts.LinkUps)
		emit("fault.blocked", in.Counts.Blocked)
		emit("fault.duplicated", in.Counts.Duplicated)
		emit("fault.reordered", in.Counts.Reordered)
	})
}
