// Conservative parallel discrete-event scheduler. The network is
// partitioned spatially into shards (contiguous stripes of spatial-index
// columns), each owning its nodes' timer and delivery queues. Shards run
// concurrently inside lookahead windows bounded by when a cross-shard
// message could earliest arrive: a message transmitted at time t is
// delivered no earlier than t + MinDelay, so a shard may safely process
// every event strictly below
//
//	horizon(s) = min( next global event,
//	                  until+1,
//	                  min over adjacent shards j of
//	                      nextEvent(j) + pairLookahead(j, s) )
//
// where pairLookahead(j, s) is the minimum delivery delay of any link
// that crosses the j|s boundary and is currently able to carry a frame
// (both endpoints live, link not cut — see refreshLookahead). Adjacent
// shards only influence each other through those links, and cross-shard
// deliveries are buffered to the barrier, so nothing shard j does inside
// the window can reach s before nextEvent(j) + pairLookahead. This is
// the channel-clock form of the classic conservative (Chandy–Misra–
// Bryant) bound, with the per-hop delay floor Theorems 1–3 lean on
// reused as the lookahead (see DESIGN.md §13).
//
// Window barriers are split into their two halves, because only one is
// needed every window. Cross-shard deliveries buffered during a window
// are enqueued into their destination shards at every window end — in
// shard-ID order, a deterministic handoff the next horizons must see.
// The fold half — counters, trace buffers, result buffers — exists only
// for observation, and observation order is made independent of fold
// placement (records carry their own (At, shard, generation) sort key
// and drain gated on a safety bound), so folds are elided entirely
// until trace-buffer pressure forces one or Run returns.
// Config.ShardNoCoalesce restores a fold per window for the
// equivalence gates.
//
// Global events scheduled with ScheduleAt (injections, fault
// transitions, replay, aggregation epochs) stay in the global queue and
// run serially between windows, so all engine-global mutation (Down
// flags, base-fact logs, replay state wipes) happens with no shard
// goroutine in flight.
package nsim

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/obs"
)

// ShardForker is implemented by fault controllers that can produce
// per-shard views of themselves. The scheduler calls ForkShard once per
// shard before the first window; each view gets its own RNG stream so
// concurrent shards never share mutable fault state. A controller that
// does not implement ShardForker still works — the scheduler then runs
// windows sequentially on one goroutine (same results, no parallelism)
// rather than share an unsynchronized controller across goroutines.
type ShardForker interface {
	FaultController
	ForkShard(shard int) FaultController
}

// LinkStateProber is optionally implemented by fault controllers that
// can report link state without side effects. The sharded scheduler's
// per-pair lookahead probes every boundary link when it recomputes
// horizons; unlike LinkBlocked, a probe must not count as a blocked
// transmission attempt (Counts are cross-checked against the drop
// trace). A controller without this method is treated as obstructing
// nothing, which only ever shrinks the lookahead — sound, just less
// parallel.
type LinkStateProber interface {
	LinkObstructed(src, dst NodeID, now Time) bool
}

// PayloadCloner is implemented by payloads that receivers mutate in
// place (the engine's walker messages: Visited sets, leg indexes,
// partial-result lists). The sharded scheduler clones such payloads
// once per cross-shard transmission, so no two shards ever share a
// mutable payload; fault duplicates of one transmission share its
// clone, just as they share the original on the single-threaded path.
// Same-shard recipients share the sender's payload — they run on the
// sender's goroutine, with exactly the single-threaded scheduler's
// sequential aliasing semantics. The single-threaded scheduler never
// clones; its aliasing is part of its byte-exact behavior.
type PayloadCloner interface {
	ClonePayload() interface{}
}

// crossEvent is a delivery bound for a node in another shard, buffered
// during a parallel window and enqueued at the barrier. Its arrival time
// is ≥ the sender shard's horizon by the lookahead argument, so
// deferring the enqueue past the barrier never reorders it before
// events it could have influenced.
type crossEvent struct {
	at      Time
	src     NodeID
	dst     NodeID
	size    int
	kind    string
	payload interface{}
}

// boundaryLink is one radio link crossing a shard boundary: a lives in
// shard b's index minus one. The lists are fixed at partition time
// (positions and neighbor lists are immutable after Finalize); only
// liveness changes, which refreshLookahead re-checks on demand.
type boundaryLink struct {
	a, b NodeID
}

// shardTraceEvent is one buffered trace record. aux marks events that
// belong to the registered auxiliary sink (the engine's trace ring, fed
// via Node.BufferShardTrace) rather than the network's own; both kinds
// share one per-shard buffer so the fold interleaves them in a single
// canonical (At, buffer, generation) order, where "buffer" runs the
// network-global serial buffer first, then the shards in ID order.
type shardTraceEvent struct {
	ev  obs.Event
	aux bool
}

// shardFoldBacklog is the buffered-trace-record count that forces a
// fold: folds exist only for observation, so an unobserved run folds
// once per Run call, while an observed run folds just often enough to
// keep the buffers (and the ring's view of the run) bounded.
const shardFoldBacklog = 4096

// shard owns a stripe of nodes: their event queue, clock, RNG stream,
// message scratch, and counter deltas. Counter deltas and trace events
// accumulate shard-locally across windows and fold into the Network
// totals at real barriers, in shard-ID order, so totals and traces are
// identical run to run for a fixed (seed, shard count) pair.
type shard struct {
	id      int
	nw      *Network
	now     Time
	rng     *rand.Rand
	queue   typedQueue
	seq     int64
	scratch Message
	faults  FaultController
	// start parks this shard's persistent worker between windows; the
	// coordinator sends the window horizon to release it (startWorkers).
	start chan Time

	// window-local counter deltas, folded at real barriers
	sent, bytes, dropped, retries, events int64
	kindCounts, kindBytes                 map[string]int64
	traceBuf                              []shardTraceEvent
	out                                   []crossEvent
}

const timeInf = Time(math.MaxInt64)

// partitionShards splits the node set into cfg.Shards contiguous stripes
// of spatial-index columns, balanced by node count. The spatial cell
// width strictly exceeds the radio range, so radio neighbors are at most
// one column apart; the column→shard map advances by at most one shard
// per column, so neighbors land in the same or adjacent shards — the
// invariant the cross-shard buffering relies on (a shard only ever
// exports deliveries, never mutates a foreign queue mid-window). It also
// records the boundary link lists the per-pair lookahead probes.
//
// Sharding is skipped (the network stays single-threaded) for
// energy-budget runs: energy deaths flip Down mid-transmission, which
// the parallel path cannot observe race-free.
func (nw *Network) partitionShards() {
	k := nw.cfg.Shards
	if k < 2 || nw.cfg.EnergyBudget > 0 || len(nw.nodes) == 0 {
		return
	}
	if k > nw.index.cols {
		k = nw.index.cols
	}
	if k < 2 {
		return
	}
	colCount := make([]int, nw.index.cols)
	for _, n := range nw.nodes {
		colCount[nw.index.colOf(n.X)]++
	}
	total := len(nw.nodes)
	colShard := make([]int, nw.index.cols)
	// Advance to the next shard when the running count crosses the
	// balance threshold — but only if the current shard already holds a
	// node (cum > prev) and nodes remain for the next one (cum < total),
	// so no shard ever ends up empty however lopsided the columns are.
	s, cum, prev := 0, 0, 0
	for c := range colShard {
		colShard[c] = s
		cum += colCount[c]
		if s < k-1 && cum > prev && cum < total && cum*k >= (s+1)*total {
			s++
			prev = cum
		}
	}
	k = s + 1
	if k < 2 {
		return // everything landed in one stripe: stay single-threaded
	}
	nw.shards = make([]*shard, k)
	for i := range nw.shards {
		nw.shards[i] = &shard{
			id:  i,
			nw:  nw,
			rng: rand.New(rand.NewSource(nw.cfg.Seed + int64(i+1)*6364136223846793005)),
		}
	}
	for _, n := range nw.nodes {
		n.sh = nw.shards[colShard[nw.index.colOf(n.X)]]
	}
	// Boundary links, one list per adjacent shard pair (i, i+1). Each
	// crossing link appears once, in its lower shard's list; liveness is
	// probed in both directions, so one entry covers both.
	nw.boundaryLinks = make([][]boundaryLink, k-1)
	for _, n := range nw.nodes {
		si := n.sh.id
		for _, nb := range n.neighbors {
			if nw.nodes[nb].sh.id == si+1 {
				nw.boundaryLinks[si] = append(nw.boundaryLinks[si], boundaryLink{a: n.ID, b: nb})
			}
		}
	}
	nw.pairLA = make([]Time, k-1)
	nw.laValid = false
}

// refreshLookahead recomputes the per-boundary lookahead when stale: the
// minimum delivery delay of any boundary link that can currently carry a
// frame — MinDelay (delays are uniform per link) if the pair has a live,
// unobstructed crossing link in either direction, +inf if every crossing
// link is dead or cut (the pair cannot interact at all until a fault
// transition changes that, and fault transitions are global events).
//
// Staleness: laValid is cleared after every serial closure event
// (fault transitions, injections, replay — everything that can flip a
// Down flag or link state runs there, including test closures that set
// Down directly), mirroring the routing-cache invalidation discipline.
// Mid-window the probed state is frozen — windows never extend past the
// next global event — so a computed lookahead stays valid for exactly
// the windows it covers.
func (nw *Network) refreshLookahead() {
	if nw.laValid {
		return
	}
	nw.laValid = true
	var prober LinkStateProber
	if nw.faults != nil {
		prober, _ = nw.faults.(LinkStateProber)
	}
	for b, links := range nw.boundaryLinks {
		la := timeInf
		for _, l := range links {
			if nw.nodes[l.a].Down || nw.nodes[l.b].Down {
				continue
			}
			if prober != nil &&
				prober.LinkObstructed(l.a, l.b, nw.now) &&
				prober.LinkObstructed(l.b, l.a, nw.now) {
				continue
			}
			la = nw.cfg.MinDelay
			break
		}
		nw.pairLA[b] = la
	}
}

// ShardCount returns the number of shards the scheduler runs with, or 0
// when the network is single-threaded.
func (nw *Network) ShardCount() int { return len(nw.shards) }

// OnBarrier registers f to run (on the scheduler goroutine, with no
// shard in flight) at every fold — whenever trace-buffer pressure or
// Config.ShardNoCoalesce forces one, and once more when Run returns.
// safe is the fold's safety bound: every shard has already produced all
// of its events with time < safe, so buffers gated on safe drain in
// globally consistent order however many windows a fold spans (timeInf
// on the final fold). The core engine uses this to fold per-shard
// result buffers deterministically.
func (nw *Network) OnBarrier(f func(safe Time)) { nw.barrierHooks = append(nw.barrierHooks, f) }

// SetShardTraceSink registers the receiver for auxiliary trace events
// buffered with Node.BufferShardTrace. The barrier fold interleaves
// auxiliary and radio events by (At, shard, generation order) and hands
// each auxiliary event to the sink in that canonical order.
func (nw *Network) SetShardTraceSink(f func(obs.Event)) { nw.auxSink = f }

// BufferShardTrace records an engine-side trace event through the
// node's shard buffer so the fold can interleave it canonically with
// the radio trace. Serial-phase events buffer too — they are stamped
// with the node's shard clock, so the buffer stays At-monotone and the
// canonical drain order is independent of where the folds fall. It
// reports false — recording nothing — only when the network is
// unsharded and the caller should record directly.
func (n *Node) BufferShardTrace(e obs.Event) bool {
	sh := n.sh
	if sh == nil {
		return false
	}
	sh.traceBuf = append(sh.traceBuf, shardTraceEvent{ev: e, aux: true})
	return true
}

// Shard returns the shard index owning this node (0 when unsharded).
func (n *Node) Shard() int {
	if n.sh == nil {
		return 0
	}
	return n.sh.id
}

// simNow is the node's scheduler clock: its shard clock while sharded
// (shard clocks run ahead of each other inside a window), the global
// clock otherwise.
func (n *Node) simNow() Time {
	if n.sh != nil {
		return n.sh.now
	}
	return n.net.now
}

// setShardedNow raises the global clock and every shard clock to t.
// Clocks never move backward. Callers only pass times no shard still
// holds an earlier event for: the window base (the global minimum event
// time), a serial event's time (which only runs when no shard holds an
// earlier event), or the final quiescent maximum — raising a shard's
// clock past one of its pending events would distort the timers that
// event sets, so barriers between windows deliberately leave the
// per-shard clocks alone.
func (nw *Network) setShardedNow(t Time) {
	if t > nw.now {
		nw.now = t
	}
	for _, sh := range nw.shards {
		if t > sh.now {
			sh.now = t
		}
	}
}

// startWorkers launches one persistent worker goroutine per shard,
// parked on its start channel. Workers live for the duration of one
// runSharded call (stopWorkers at return, so an idle Network holds no
// goroutines) and are released once per window with the window horizon
// — no per-window goroutine spawn, one WaitGroup reused throughout.
func (nw *Network) startWorkers() {
	if nw.workersUp {
		return
	}
	nw.workersUp = true
	nw.workerStop = make(chan struct{})
	for _, sh := range nw.shards {
		if sh.start == nil {
			sh.start = make(chan Time, 1)
		}
		go sh.workerLoop(nw.workerStop)
	}
}

func (nw *Network) stopWorkers() {
	if !nw.workersUp {
		return
	}
	close(nw.workerStop)
	nw.workersUp = false
}

func (sh *shard) workerLoop(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case h := <-sh.start:
			sh.runWindow(h)
			sh.nw.workerWG.Done()
		}
	}
}

// runSharded is the sharded counterpart of Run's event loop. It
// alternates serial phases (single global events on the scheduler
// goroutine) with window phases that advance all shards concurrently up
// to their per-shard horizons (package comment). Every window ends with
// a crossing exchange; the fold — counters, traces, results — is elided
// until trace-buffer pressure forces one or Run returns.
func (nw *Network) runSharded(until Time) Time {
	var forker ShardForker
	if nw.faults != nil {
		forker, _ = nw.faults.(ShardForker)
		if forker != nil {
			for _, sh := range nw.shards {
				if sh.faults == nil {
					sh.faults = forker.ForkShard(sh.id)
				}
			}
		}
	}
	concurrent := nw.faults == nil || forker != nil
	if concurrent {
		nw.startWorkers()
		defer nw.stopWorkers()
	}
	backlog := nw.cfg.ShardFoldBacklog
	if backlog <= 0 {
		backlog = shardFoldBacklog
	}
	k := len(nw.shards)
	nextAt := make([]Time, k)
	horizons := make([]Time, k)
	busy := make([]*shard, 0, k)
	for {
		gNext := timeInf
		if len(nw.queue) > 0 {
			gNext = nw.queue[0].at
		}
		sNext := timeInf
		for i, sh := range nw.shards {
			t := timeInf
			if len(sh.queue) > 0 {
				t = sh.queue[0].at
			}
			nextAt[i] = t
			if t < sNext {
				sNext = t
			}
		}
		if gNext == timeInf && sNext == timeInf {
			m := nw.now
			for _, sh := range nw.shards {
				if sh.now > m {
					m = sh.now
				}
			}
			nw.setShardedNow(m)
			nw.barrier(true)
			return nw.now
		}
		base := gNext
		if sNext < base {
			base = sNext
		}
		if until > 0 && base > until {
			nw.setShardedNow(until)
			nw.barrier(true)
			return nw.now
		}
		if gNext <= sNext {
			// Serial phase: one global event, no shard in flight. No fold
			// is needed first — everything the event can observe (queues,
			// node state, crossings) is already in place, and any trace
			// records it produces are buffered with At ≥ gNext, above
			// every unfolded record, so the canonical drain order does
			// not depend on a fold happening here.
			ev := nw.queue.pop()
			nw.setShardedNow(ev.at)
			nw.EventsProcessed++
			nw.hQueue.Observe(int64(len(nw.queue)))
			switch ev.kind {
			case evTimer:
				n := nw.nodes[ev.node]
				if !n.Down {
					n.App.Timer(n, ev.str, ev.data)
				}
			case evDelivery:
				nw.scratch = Message{Src: ev.src, Dst: ev.node, Kind: ev.str, Payload: ev.data, Size: ev.size}
				nw.deliver(&nw.scratch)
			default:
				ev.fn()
				// Closure events are where Down flags and fault state
				// change; recompute boundary lookaheads before the next
				// window (routing-cache discipline).
				nw.laValid = false
			}
			continue
		}
		// Window phase: per-shard horizons from the boundary lookaheads.
		nw.refreshLookahead()
		hCap := gNext
		if until > 0 && until+1 < hCap {
			hCap = until + 1
		}
		maxH := base
		busy = busy[:0]
		for i, sh := range nw.shards {
			h := hCap
			if i > 0 {
				if c := latArrival(nextAt[i-1], nw.pairLA[i-1]); c < h {
					h = c
				}
			}
			if i < k-1 {
				if c := latArrival(nextAt[i+1], nw.pairLA[i]); c < h {
					h = c
				}
			}
			horizons[i] = h
			if h > maxH {
				maxH = h
			}
			if nextAt[i] < h {
				busy = append(busy, sh)
			}
		}
		nw.setShardedNow(base)
		nw.parallel = true
		if concurrent && len(busy) > 1 {
			nw.workerWG.Add(len(busy))
			for _, sh := range busy {
				sh.start <- horizons[sh.id]
			}
			nw.workerWG.Wait()
		} else {
			for _, sh := range busy {
				sh.runWindow(horizons[sh.id])
			}
		}
		nw.parallel = false
		nw.ShardWindows++
		nw.hWindow.Observe(int64(maxH - base))
		// Exchange half of the barrier, every window: buffered crossings
		// land in their destination shards (shard-ID order — a
		// deterministic handoff) so the next horizons and serial/window
		// ordering decisions see them.
		nw.enqueueCrossings()
		// Fold half, elided unless forced: counter, trace, and result
		// deltas exist only for observation, and the canonical drain
		// order is fold-placement-independent, so they accumulate
		// shard-locally until trace-buffer pressure (or the equivalence
		// gates' ShardNoCoalesce) forces a fold — or Run returns.
		if nw.cfg.ShardNoCoalesce || nw.traceBacklog() >= backlog {
			nw.ShardBarriers++
			nw.barrier(false)
		} else {
			nw.ShardElided++
		}
	}
}

// traceBacklog is the number of trace records buffered across all
// shards and the serial buffer — the fold-pressure gauge. Zero for the
// whole run when no trace is attached.
func (nw *Network) traceBacklog() int {
	n := len(nw.serialBuf)
	for _, sh := range nw.shards {
		n += len(sh.traceBuf)
	}
	return n
}

// latArrival is the earliest a shard whose next event is at `next` could
// deliver across a boundary with lookahead la — the channel-clock bound,
// saturating at +inf.
func latArrival(next, la Time) Time {
	if next == timeInf || la == timeInf {
		return timeInf
	}
	return next + la
}

// enqueueCrossings lands every buffered cross-shard delivery in its
// destination shard's queue, in shard-ID order. This is the exchange
// half of a window barrier and runs at every window end — the next
// horizons must see the crossings — independent of whether the fold
// half runs.
func (nw *Network) enqueueCrossings() {
	for _, sh := range nw.shards {
		for _, ce := range sh.out {
			dsh := nw.nodes[ce.dst].sh
			dsh.seq++
			dsh.queue.push(simEvent{at: ce.at, seq: dsh.seq, kind: evDelivery,
				node: ce.dst, src: ce.src, size: ce.size, str: ce.kind, data: ce.payload})
			nw.ShardCrossings++
		}
		sh.out = sh.out[:0]
	}
}

// barrier is the fold half of a window barrier: it folds every shard's
// accumulated counter deltas into the Network totals, flushes buffered
// trace events up to the fold's safety bound, and runs registered hooks
// — all in shard-ID order, so the fold is deterministic for a fixed
// shard count.
//
// The safety bound safe = min(next global event, any shard's next
// event) — crossings have already landed — is the earliest time any
// shard could still produce a record for. Trace events below it drain
// now in canonical (At, buffer, generation) order; events at or above
// it stay buffered for a later fold. Gating on safe makes the
// cumulative drained stream independent of where the folds fall — a
// coalesced run and a fold-every-window run emit byte-identical traces.
// final forces safe = +inf (Run is returning; nothing more will be
// produced).
func (nw *Network) barrier(final bool) {
	for _, sh := range nw.shards {
		nw.TotalSent += sh.sent
		nw.TotalBytes += sh.bytes
		nw.TotalDropped += sh.dropped
		nw.TotalRetries += sh.retries
		nw.EventsProcessed += sh.events
		sh.sent, sh.bytes, sh.dropped, sh.retries, sh.events = 0, 0, 0, 0, 0
		for k, v := range sh.kindCounts {
			nw.KindCounts[k] += v
		}
		for k, v := range sh.kindBytes {
			nw.KindBytes[k] += v
		}
		clear(sh.kindCounts)
		clear(sh.kindBytes)
	}
	safe := timeInf
	if !final {
		if len(nw.queue) > 0 {
			safe = nw.queue[0].at
		}
		for _, sh := range nw.shards {
			if len(sh.queue) > 0 && sh.queue[0].at < safe {
				safe = sh.queue[0].at
			}
		}
	}
	nw.flushTraces(safe, final)
	for _, f := range nw.barrierHooks {
		f(safe)
	}
}

// flushTraces drains the buffered trace events with At < safe into the
// attached sinks: the network-global serial buffer first (fault
// transitions and other node-less records, At-monotone on the global
// clock), then every shard's buffer in shard-ID order, stable-sorted by
// At (per-shard buffers are At-monotone — every record is stamped with
// the shard clock — so the concatenation is already in per-buffer
// generation order and the stable sort yields the canonical (At,
// buffer, generation) interleaving). Radio events go to the network
// trace, auxiliary events to the registered sink, in one merged order.
// Every record with At < safe is already buffered when the fold runs —
// any future record is stamped at or above its producing event's time,
// which is ≥ safe — so each fold drains a closed At-interval and the
// cumulative drained stream is the full canonical order no matter where
// the folds fall.
func (nw *Network) flushTraces(safe Time, final bool) {
	scratch := nw.foldScratch[:0]
	cutBuf := func(buf []shardTraceEvent) []shardTraceEvent {
		cut := len(buf)
		if !final {
			// Buffers are At-monotone, so the safe prefix is a binary
			// search.
			cut = sort.Search(len(buf), func(i int) bool {
				return buf[i].ev.At >= int64(safe)
			})
		}
		if cut == 0 {
			return buf
		}
		scratch = append(scratch, buf[:cut]...)
		rem := copy(buf, buf[cut:])
		return buf[:rem]
	}
	nw.serialBuf = cutBuf(nw.serialBuf)
	for _, sh := range nw.shards {
		sh.traceBuf = cutBuf(sh.traceBuf)
	}
	if len(scratch) > 0 {
		sort.SliceStable(scratch, func(i, j int) bool { return scratch[i].ev.At < scratch[j].ev.At })
		for i := range scratch {
			if scratch[i].aux {
				if nw.auxSink != nil {
					nw.auxSink(scratch[i].ev)
				}
			} else if nw.trace != nil {
				nw.trace.Record(scratch[i].ev)
			}
		}
	}
	nw.foldScratch = scratch[:0]
}

// runWindow drains the shard's queue up to (strictly below) horizon.
// Within the window the shard touches only its own nodes' state plus the
// race-free observability primitives (atomic histogram buckets); every
// foreign effect is a buffered crossEvent.
func (sh *shard) runWindow(horizon Time) {
	nw := sh.nw
	for len(sh.queue) > 0 && sh.queue[0].at < horizon {
		ev := sh.queue.pop()
		if ev.at > sh.now {
			sh.now = ev.at
		}
		sh.events++
		nw.hQueue.Observe(int64(len(sh.queue)))
		switch ev.kind {
		case evTimer:
			n := nw.nodes[ev.node]
			if !n.Down {
				n.App.Timer(n, ev.str, ev.data)
			}
		case evDelivery:
			sh.scratch = Message{Src: ev.src, Dst: ev.node, Kind: ev.str, Payload: ev.data, Size: ev.size}
			sh.deliver(&sh.scratch)
		default:
			ev.fn()
		}
	}
}

// trace buffers e in the shard's trace buffer, serial phases included:
// serial-phase records are stamped with the shard clock too, so the
// buffer stays At-monotone and the canonical drain order is independent
// of fold placement.
func (sh *shard) trace(e obs.Event) {
	if sh.nw.trace == nil {
		return
	}
	sh.traceBuf = append(sh.traceBuf, shardTraceEvent{ev: e})
}

// transmit is the sharded counterpart of Network.transmit: same ARQ
// loop, fault hooks, and per-kind accounting, but counters go to the
// shard's window-local deltas during parallel windows and all randomness
// comes from the shard's own RNG stream. The energy model is absent by
// construction — partitionShards refuses to shard energy-budget runs.
func (sh *shard) transmit(src *Node, dst NodeID, kind string, payload interface{}, size int) {
	nw := sh.nw
	// Clone mutable payloads only when the delivery leaves the shard: a
	// same-shard recipient runs on this goroutine and may share the
	// sender's payload exactly as the single-threaded scheduler's
	// recipients do. A cross-shard recipient runs concurrently, so it
	// gets its own snapshot — one clone per transmission, shared by
	// fault duplicates just as the original is shared on the
	// single-threaded path.
	if nw.parallel && nw.nodes[dst].sh != sh {
		if pc, ok := payload.(PayloadCloner); ok {
			payload = pc.ClonePayload()
		}
	}
	if nw.hopStamp {
		if hc, ok := payload.(HopCounter); ok {
			hc.BumpHop()
		}
	}
	par := nw.parallel
	fc := sh.faults
	if fc == nil {
		fc = nw.faults
	}
	delivered := false
	for attempt := 0; attempt <= nw.cfg.Retries; attempt++ {
		src.Sent++
		src.BytesOut += int64(size)
		if par {
			sh.sent++
			sh.bytes += int64(size)
			if sh.kindCounts == nil {
				sh.kindCounts = make(map[string]int64)
				sh.kindBytes = make(map[string]int64)
			}
			sh.kindCounts[kind]++
			sh.kindBytes[kind] += int64(size)
			if attempt > 0 {
				sh.retries++
			}
		} else {
			nw.TotalSent++
			nw.TotalBytes += int64(size)
			nw.KindCounts[kind]++
			nw.KindBytes[kind] += int64(size)
			if attempt > 0 {
				nw.TotalRetries++
			}
		}
		sh.trace(obs.Event{At: int64(sh.now), Node: int32(src.ID), Peer: int32(dst),
			Kind: obs.EvSend, Pred: kind, Size: int32(size)})
		if fc != nil && fc.LinkBlocked(src.ID, dst, sh.now) {
			if par {
				sh.dropped++
			} else {
				nw.TotalDropped++
			}
			sh.trace(obs.Event{At: int64(sh.now), Node: int32(src.ID), Peer: int32(dst),
				Kind: obs.EvDrop, Pred: kind, Size: int32(size)})
			continue
		}
		if nw.cfg.LossRate > 0 && sh.rng.Float64() < nw.cfg.LossRate {
			if par {
				sh.dropped++
			} else {
				nw.TotalDropped++
			}
			sh.trace(obs.Event{At: int64(sh.now), Node: int32(src.ID), Peer: int32(dst),
				Kind: obs.EvDrop, Pred: kind, Size: int32(size)})
			continue
		}
		delivered = true
		break
	}
	if !delivered {
		return
	}
	delay := nw.cfg.MinDelay
	if nw.cfg.MaxDelay > nw.cfg.MinDelay {
		delay += Time(sh.rng.Int63n(int64(nw.cfg.MaxDelay - nw.cfg.MinDelay + 1)))
	}
	if fc != nil {
		extra, dup := fc.DeliveryFault(src.ID, dst, sh.now)
		if extra > 0 {
			delay += extra
			sh.trace(obs.Event{At: int64(sh.now), Node: int32(src.ID), Peer: int32(dst),
				Kind: obs.EvReorder, Pred: kind, Size: int32(size)})
		}
		for i := 0; i < dup; i++ {
			sh.trace(obs.Event{At: int64(sh.now), Node: int32(src.ID), Peer: int32(dst),
				Kind: obs.EvDup, Pred: kind, Size: int32(size)})
			sh.scheduleDelivery(sh.now+delay, src.ID, dst, kind, payload, size)
		}
	}
	sh.scheduleDelivery(sh.now+delay, src.ID, dst, kind, payload, size)
}

// scheduleDelivery enqueues a delivery for dst. During a parallel window
// a delivery for a foreign shard is buffered as a crossEvent (its
// arrival time is ≥ the window horizon, so the deferral is invisible);
// otherwise — own shard, or serial phase — it goes straight into the
// destination shard's queue.
func (sh *shard) scheduleDelivery(t Time, src, dst NodeID, kind string, payload interface{}, size int) {
	dsh := sh.nw.nodes[dst].sh
	if dsh != sh && sh.nw.parallel {
		sh.out = append(sh.out, crossEvent{at: t, src: src, dst: dst, size: size, kind: kind, payload: payload})
		return
	}
	dsh.seq++
	dsh.queue.push(simEvent{at: t, seq: dsh.seq, kind: evDelivery,
		node: dst, src: src, size: size, str: kind, data: payload})
}

// deliver hands a message to its destination. Down flags only change in
// serial phases (fault transitions are global events; energy runs are
// never sharded), so the read is race-free mid-window. A delivery that
// reaches a node after it crashed is a no-op here exactly as it is on
// the single-threaded path — which is also why a dead receiver may be
// excluded from the boundary lookahead: whatever arrival time its
// pending deliveries carry, processing them can only discard them.
func (sh *shard) deliver(m *Message) {
	d := sh.nw.nodes[m.Dst]
	if d.Down || d.App == nil {
		return
	}
	d.Received++
	d.BytesIn += int64(m.Size)
	sh.trace(obs.Event{At: int64(sh.now), Node: int32(d.ID), Peer: int32(m.Src),
		Kind: obs.EvRecv, Pred: m.Kind, Size: int32(m.Size)})
	d.App.Receive(d, m)
}
