package core

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/datalog/eval"
	"repro/internal/nsim"
	"repro/internal/window"
)

// Replay (and ReplayAt) is the engine's anti-entropy repair pass for
// runs that lost messages to injected faults: crashes, partitions and
// link churn can permanently drop replication walkers, join sweeps and
// result candidates, leaving the distributed derived set short of —
// or, through missed negated-stream retractions, in excess of — the
// program's true fixpoint.
//
// The repair is a full re-execution of the base timeline. Every node
// drops its distributed state (replica store, which is also what
// recognises replica floods, set-of-derivations store, join-flood set,
// buffered candidates), the routing cache is invalidated (entries
// computed while a node was down would keep routing around it after
// recovery), and every base generation — insert or delete — is
// re-launched with its ORIGINAL stamps. The join
// machinery then re-derives the IDB from scratch; derived cascades run
// with fresh stamps, which all order after every base stamp.
//
// The base timeline needs no log of its own: it is read, before the
// wipe, off each node's own replicas (baseTimeline). A source stores its
// generation before anything else (launch), and a deletion stamps the
// replica instead of removing it (Section IV-B), so a node's store holds
// every base generation it made, deletions included, until a window
// expires it.
//
// Stamp preservation is what makes the re-execution equivalent to
// evaluating the program over the surviving base set:
//
//   - replica visibility is decided by stamps alone (VisibleAt), so a
//     replayed sweep at visibility stamp tau sees exactly the replicas
//     the original timeline would have shown a fault-free sweep at tau
//     — a re-launched deletion marker (original deletion stamp) hides
//     the tuple from every later tau, however the repair traffic
//     interleaves;
//   - derivation keys are (rule ID, positive body tuple stamps), so
//     the add emitted by a replayed insert and the remove emitted by a
//     replayed delete name the same derivation, exactly as they did
//     (or would have, had their walkers survived) the first time;
//   - re-issued candidates carry their original update stamps, and the
//     finalize floor (bufferCand) holds them until the repair traffic
//     settles, so one drain applies them in stamp order — the same
//     Theorem 3 ordering the original deadlines enforced.
//
// A wholesale wipe may look heavy-handed next to an incremental patch,
// but incremental repair is unsound for negation: a derivation added
// because a sweep could not see a blocked replica of a negated
// predicate is never named by any base removal, so no amount of
// re-adding retracts it. Re-deriving from the base timeline uses the
// paper's own maintenance machinery as the repair path — negated-
// stream triggers re-emit exactly the retractions the faults ate.
//
// Preconditions: call at quiescence (fault schedule healed, event
// queue otherwise drained — in-flight walkers would re-apply stale
// partial state after the wipe), and with unbounded windows (expiry
// reclaims old-stamp replicas before the re-execution can use them, and
// a generation whose replica its source has expired is not re-launched
// at all).
// Cascades through k rule strata settle within the replayed drains;
// the differential harness in internal/check runs the network dry
// after each pass and re-checks, repeating while the derived set still
// disagrees with the oracle.

// Replay schedules a repair pass now.
func (e *Engine) Replay() { e.ReplayAt(e.nw.Now()) }

// ReplayAt schedules a repair pass at the given simulation time (see
// the package comment above for the preconditions).
func (e *Engine) ReplayAt(at nsim.Time) { e.nw.ScheduleAt(at, e.replayNow) }

func (e *Engine) replayNow() {
	timelines := make([][]baseGen, len(e.rts))
	for i, rt := range e.rts {
		timelines[i] = rt.baseTimeline()
	}
	e.finalizeFloor = e.nw.Now()
	e.router.Invalidate()
	// Provenance lives in the homed maps wiped below, so it goes with
	// them: keeping pre-replay records would let Explain cite derivations
	// the replayed timeline never produced (the §11 unsoundness argument
	// again). The re-execution recaptures through the normal hooks.
	e.provLive.Store(0)
	e.provCaptured.Store(0)
	// Every home record goes, node by node, each node's in key order.
	for _, rt := range e.rts {
		keys := make([]string, 0, len(rt.homed))
		for k := range rt.homed {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			t := rt.homed[k].t
			e.homeChanged(e.preds[t.Pred], t, false, rt.node.ID)
		}
	}
	e.arena = e.arena.Renew() // the old stores and their slots go together
	for _, rt := range e.rts {
		rt.store = e.newStore()
		rt.homed = make(map[string]*homed)
		rt.aggSessions = make(map[string]*aggSession)
		clear(rt.pendingCands)
		rt.pendingCands = rt.pendingCands[:0]
		rt.joinFloods = nil
	}
	// Program facts of derived predicates are not rule-derived, so the
	// base replay cannot restore them; re-seed them (fresh stamps).
	for _, f := range e.prog.Facts() {
		t := eval.Tuple{Pred: f.Head.PredKey(), Args: f.Head.Args}
		if p := e.preds[t.Pred]; p.derived {
			e.seedDerivedFact(p, f.ID, t, e.homeFor(p, t))
		}
	}
	for i, rt := range e.rts {
		for _, g := range timelines[i] {
			rt.launch(e.preds[g.t.Pred], g.t, g.id, g.del, g.stamp())
		}
	}
}

// baseGen is one base generation a node made: an insert of t with
// generation stamp id, or, when del is set, its deletion at *del.
type baseGen struct {
	t   eval.Tuple
	id  window.Stamp
	del *window.Stamp
}

// stamp is the stamp the generation was made under.
func (g baseGen) stamp() window.Stamp {
	if g.del != nil {
		return *g.del
	}
	return g.id
}

// baseTimeline returns the base generations this node made, in the order
// it made them, read off its own replicas: each replica of a base
// predicate whose ID the node stamped is an insert at ID, then, if it is
// marked deleted, a deletion at Del. Every generate raises rt.seq, so
// Seq order is generation order. A generation of a predicate no rule
// reads stored nothing, and launched nothing either.
func (rt *nodeRT) baseTimeline() []baseGen {
	var gens []baseGen
	rt.store.Replicas(func(predKey string, en *window.Entry) {
		if en.ID.Node != int(rt.node.ID) || !rt.e.preds[predKey].base {
			return
		}
		t := eval.Tuple{Pred: predKey, Args: en.Args}
		gens = append(gens, baseGen{t: t, id: en.ID})
		if en.Deleted {
			del := en.Del
			gens = append(gens, baseGen{t: t, id: en.ID, del: &del})
		}
	})
	slices.SortFunc(gens, func(a, b baseGen) int { return cmp.Compare(a.stamp().Seq, b.stamp().Seq) })
	return gens
}
