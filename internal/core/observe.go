package core

import (
	"sort"

	"repro/internal/obs"
)

// Default histogram bucket ladders (inclusive upper bounds).
var (
	// settleBuckets covers update-visibility → finalize-application
	// latency in virtual ticks: τs+τc+τj sums land in the khz range on
	// the standard grids.
	settleBuckets = obs.ExpBuckets(64, 2, 9) // 64 .. 16384
	// hopBuckets covers candidate routing producer→home.
	hopBuckets = obs.ExpBuckets(1, 2, 7) // 1 .. 64
	// faninBuckets covers positive-body join width (rules are short).
	faninBuckets = []int64{1, 2, 3, 4, 6, 8}
)

// Observe attaches the observability layer to the engine. Call any
// time after New (before or after Start); passing both arguments nil
// detaches the trace and leaves the nil no-op counter handles in
// place.
//
// Live counters (one atomic add on the enabled path, one nil check
// when disabled) cover the deductive work the engine does not already
// account anywhere:
//
//	core.probes              store probes by the join sweep (visibleMatch)
//	core.joins               successful subgoal extensions (partial results)
//	core.candidates          complete results routed toward a home node
//	core.settles             candidates applied at their finalize deadline
//	core.derivations         derived tuples becoming live at their home
//	core.derivations.<pred>  ditto, split by head predicate
//	core.deletions           derived tuples losing their last derivation
//	core.deletions.<pred>    ditto, split by head predicate
//	window.expire_calls      expiry checks by the node handlers (expire)
//	window.expire_due        those that found a replica past its retention
//	window.expired           replicas and tombstones reclaimed
//
// Snapshot-time providers expose state the engine already tracks, so
// observed and unobserved runs execute identical hot paths for them:
//
//	core.mem.max_tuples      max per-node stored tuples (replicas+derivations)
//	core.mem.total_tuples    network-wide stored tuples (avg = total/nodes)
//	core.mem.max             alias of max_tuples (per-node memory family)
//	core.mem.p50             median per-node stored tuples
//
// Histograms (recorded per settled candidate, flattened by Snapshot
// into .count/.sum/.max/.p50/.p95/.p99/.le_<bound>):
//
//	core.settle_ticks        update visibility → finalize application
//	core.fanin               positive-body join width
//	core.result_hops         candidate routing hops (needs provenance capture)
//	core.derived_live        live derived tuples across all home nodes
//	core.derived_live.<pred> ditto, split by predicate
//	core.results_logged      home-record changes of logged predicates
//	                         (.query or watched: a serving session watches
//	                         every derived predicate), one per home
//	routing.nearest_hits     nearest-node cache hits
//	routing.nearest_misses   nearest-node cache misses (recomputations)
//	routing.stranded.<kind>  store, join and result walkers greedy routing
//	                         stranded (every live neighbour on the path)
//
// trace, if non-nil, records EvDerive/EvDelete on derivation-state
// transitions and EvSettle per applied candidate, with Pred set to the
// head predicate key and Peer = -1 (local events have no other party).
func (e *Engine) Observe(reg *obs.Registry, trace *obs.Trace) {
	e.trace = trace
	if reg == nil {
		return
	}
	e.cProbes = reg.Counter("core.probes")
	e.cJoins = reg.Counter("core.joins")
	e.cCandidates = reg.Counter("core.candidates")
	e.cSettles = reg.Counter("core.settles")
	e.cDerivations = reg.Counter("core.derivations")
	e.cDeletions = reg.Counter("core.deletions")
	e.cExpireCalls = reg.Counter("window.expire_calls")
	e.cExpireDue = reg.Counter("window.expire_due")
	e.cExpired = reg.Counter("window.expired")
	e.cStranded = map[string]*obs.Counter{
		kindStore:  reg.Counter("routing.stranded.store"),
		kindJoin:   reg.Counter("routing.stranded.join"),
		kindResult: reg.Counter("routing.stranded.result"),
	}

	// Resolve the per-predicate handles of every predicate a rule names
	// into its record, so the finalize path never looks one up.
	dv := reg.CounterVec("core.derivations")
	del := reg.CounterVec("core.deletions")
	for _, p := range e.preds {
		if p.ruled {
			p.derive, p.del = dv.With(p.key), del.With(p.key)
		}
	}

	// Histograms: settle latency (update visibility → finalize), join
	// fan-in per settled candidate, and — once provenance stamps hops —
	// candidate routing hop counts. Recorded at the drainFinalize hook;
	// nil handles keep the unobserved path at one branch per settle.
	e.hSettle = reg.Histogram("core.settle_ticks", settleBuckets)
	e.hHops = reg.Histogram("core.result_hops", hopBuckets)
	e.hFanin = reg.Histogram("core.fanin", faninBuckets)

	reg.Provide(func(emit func(name string, v int64)) {
		maxMem := 0
		var total int64
		mems := make([]int, 0, len(e.nw.Nodes()))
		for _, n := range e.nw.Nodes() {
			m := e.StoredReplicas(n.ID) + e.DerivationEntries(n.ID)
			total += int64(m)
			mems = append(mems, m)
			if m > maxMem {
				maxMem = m
			}
		}
		emit("core.mem.max_tuples", int64(maxMem))
		emit("core.mem.total_tuples", total)
		// Per-node memory distribution for E9/E12-style reporting, so
		// harnesses read the snapshot instead of scraping engine
		// internals. core.mem.max aliases max_tuples under the new
		// dotted family.
		emit("core.mem.max", int64(maxMem))
		if len(mems) > 0 {
			sort.Ints(mems)
			emit("core.mem.p50", int64(mems[len(mems)/2]))
		}

		var live int64
		perPred := make(map[string]int64)
		for _, rt := range e.rts {
			for _, h := range rt.homed {
				live++
				perPred[h.t.Pred]++
			}
		}
		emit("core.derived_live", live)
		for p, v := range perPred {
			emit("core.derived_live."+p, v)
		}
		emit("core.results_logged", e.resultsLogged)
		emit("routing.nearest_hits", e.router.Hits)
		emit("routing.nearest_misses", e.router.Misses)
	})
}

// captureProvenance switches lineage capture on; Deploy calls it before
// Start, so the seeded derived facts are captured too and every add
// candidate carries its candProv. Each settled derivation then keeps a
// (rule, head, body, producer, settler, send/settle time, hop count)
// record as its entry's value in the home node's set-of-derivations,
// queryable through Engine.Explain and Engine.Blame, and dropped with
// the entry. The hop count is the transport's: walkResult counts each
// hop a result frame is sent.
//
// reg, if non-nil, gains two gauges sampled at Snapshot time:
//
//	core.prov.live      live (head, derivation) records held
//	core.prov.captured  derivations ever captured, removed ones included
//
// Replay zeroes both with the store it wipes: pre-replay records would
// attribute tuples to derivations the re-executed timeline never
// produced (same unsoundness argument as incremental replay, DESIGN.md
// §11).
func (e *Engine) captureProvenance(reg *obs.Registry) {
	e.prov = true
	if reg != nil {
		reg.Gauge("core.prov.live", e.provLive.Load)
		reg.Gauge("core.prov.captured", e.provCaptured.Load)
	}
}
