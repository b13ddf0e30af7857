package core

import (
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/builtin"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/unify"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/obs"
	"repro/internal/obs/provenance"
	"repro/internal/window"
)

// Timer keys.
const (
	timerJoinPhase = "joinphase"
	timerFinalize  = "finalize"
)

// storeMsg replicates a tuple over its storage region (Del set turns it
// into a deletion marker carrying the deletion stamp).
type storeMsg struct {
	walk
	flood
	Tuple eval.Tuple
	ID    window.Stamp
	Del   *window.Stamp
	// sweep: the walker stores at every node it passes; otherwise it
	// stores where its walk ends. joinAtEnd: the join runs there too
	// (gpa.Plan.OnArrival).
	sweep, joinAtEnd bool
}

// partialR is a partial result (Definition 1) in flight: the register
// file of its rule's variables plus the stamps of the tuples joined so
// far. It is immutable once built — pending candidates keep reading b
// — so extension works on scratch registers and allocates the
// successor only when the match and its built-ins succeed.
type partialR struct {
	cr     *compiledRule
	pinned int         // body index the update occupies (-1 when pinned at a negated subgoal)
	b      unify.Slots // len(b.Regs) == cr.nvars
	// stamps[cr.lits[i].ord] is the tuple joined at positive subgoal i,
	// valid where bound has bit i: body order, as the derivation key
	// lists them.
	stamps []window.Stamp
	bound  uint64 // bitmask over body indices of bound positive subgoals
	bDone  uint64 // bitmask over body indices of satisfied builtins
	// negGroundAtSeed: every negated subgoal was ground under the seed
	// substitution, so sweep-long filtering covers the whole region.
	negGroundAtSeed bool
}

// partialBlock lets a partial of an ordinary rule — up to inlineRegs
// variables and inlineStamps positive subgoals — be one allocation:
// header, registers and stamps together.
type partialBlock struct {
	p      partialR
	regs   [inlineRegs]ast.Term
	stamps [inlineStamps]window.Stamp
}

const (
	inlineRegs   = 8
	inlineStamps = 4
)

// newPartial builds the partial of rule cr that the scratch registers s
// and the masks describe; stamps are its parent's (nil for a seed). While
// js.local is set the block comes from the slab: the partial must not
// outlive the local expansion that releases it.
func (js *joinScratch) newPartial(cr *compiledRule, pinned int, s unify.Slots, stamps []window.Stamp, bound, bDone uint64) *partialR {
	var np *partialR
	if npos := len(cr.posIdx); cr.nvars <= inlineRegs && npos <= inlineStamps {
		var blk *partialBlock
		if js.local {
			blk = js.block()
		} else {
			blk = new(partialBlock)
		}
		np = &blk.p
		np.b.Regs, np.stamps = blk.regs[:cr.nvars:cr.nvars], blk.stamps[:npos:npos]
	} else {
		np = new(partialR)
		np.b.Regs, np.stamps = make([]ast.Term, cr.nvars), make([]window.Stamp, npos)
	}
	np.cr, np.pinned, np.bound, np.bDone = cr, pinned, bound, bDone
	copy(np.b.Regs, s.Regs)
	np.b.Set = s.Set
	copy(np.stamps, stamps)
	return np
}

// joinScratch is the join path's reusable working memory. One event runs
// at a time per engine, so the nodes of an engine share one.
type joinScratch struct {
	regs []ast.Term           // match registers, as wide as the widest rule
	out  []*partialR          // one partial's extensions (saturate)
	all  []*partialR          // a local expansion's partials, which never leave the node
	seen map[uint64]*partialR // saturate's dedup set, by partialR.hash
	due  []*candR             // drainFinalize's due candidates

	// A store probe's key (bound columns, key bytes, AppendBoundCols'
	// term scratch) and its result. A probe result is valid until the
	// next probe: no consumer probes again before it is done with one.
	cols []int
	key  []byte
	tmp  []byte
	ents []*window.Entry

	// blocks is the slab local expansions draw their partials from, in
	// fixed chunks that never move; used counts the blocks handed out
	// since the last release, and local routes newPartial to the slab.
	blocks [][]partialBlock
	used   int
	local  bool
}

// slabChunk is the number of partial blocks in one slab chunk.
const slabChunk = 64

func newJoinScratch(maxVars int) joinScratch {
	return joinScratch{
		regs: make([]ast.Term, maxVars), seen: make(map[uint64]*partialR),
		cols: make([]int, 0, 8), key: make([]byte, 0, 64), tmp: make([]byte, 0, 48), ents: make([]*window.Entry, 0, 16),
	}
}

// block hands out the next slab block, growing the slab by a chunk when
// every block is in use.
func (js *joinScratch) block() *partialBlock {
	c, k := js.used/slabChunk, js.used%slabChunk
	if c == len(js.blocks) {
		js.blocks = append(js.blocks, make([]partialBlock, slabChunk))
	}
	js.used++
	return &js.blocks[c][k]
}

// release ends a local expansion: it zeroes the blocks handed out (so the
// slab keeps no term alive) and returns them all to the slab.
func (js *joinScratch) release() {
	for c := 0; js.used > 0; c++ {
		n := min(js.used, slabChunk)
		clear(js.blocks[c][:n])
		js.used -= n
	}
	js.local = false
}

// candR is a complete result on its way to (or buffered at) its home.
type candR struct {
	cr       *compiledRule
	Head     eval.Tuple
	DerivKey string
	Add      bool
	Update   window.Stamp // stamp of the triggering update (visibility τ)
	// negCheckedFromStart: the negated subgoals were ground from the
	// first sweep node, so the single pass covered the whole region.
	negCheckedFromStart bool
	// pend/pendSkip support region-wide negation filtering while the
	// candidate rides along the sweep: the partial it completes (for its
	// registers) and the negated subgoal its update pinned.
	pend     *partialR
	pendSkip int
	// Prov carries the provenance capture for this candidate (nil when
	// provenance is off, and on remove candidates — a removal only needs
	// the deriv key it shares with the add it cancels).
	Prov *candProv
}

// candProv is the lineage captured at candidate emission: the ground
// body tuple keys (positive subgoals, body order — matching the deriv
// key's stamp order), the producing node, the virtual emission time,
// and the hops its result frame has taken (walkResult counts them).
type candProv struct {
	Body     []string
	Producer int32
	SentAt   int64
	Hops     int32
}

// joinMsg is a join-computation walker (or flood).
type joinMsg struct {
	legWalk
	flood
	Update eval.Tuple
	ID     window.Stamp // generation stamp of the update tuple
	Tau    window.Stamp // visibility stamp (deletion stamp for deletes)
	Del    bool
	Verify bool // verification pass: only filter Pending, no expansion

	Partials []*partialR
	Pending  []*candR

	Pass     int // multi-pass index
	PassRule *compiledRule
	PassPin  int
}

// resultMsg routes one candidate to its home node.
type resultMsg struct {
	walk
	Cand *candR
}

// updateRec is the pending join-phase work scheduled by a generation.
type updateRec struct {
	Tuple eval.Tuple
	ID    window.Stamp
	Tau   window.Stamp
	Del   bool
}

// nodeRT is the per-node runtime: the join component of Figure 3.
type nodeRT struct {
	e    *Engine
	node *nsim.Node

	store *window.Store
	seq   int64
	// joinFloods, the join floods processed here, is the node's only flood
	// memory: the store says whether a replica flood copy is news.
	joinFloods map[floodKey]struct{}
	// plans is nil on an engine whose rules read no hash-placed predicate.
	plans *nodePlans

	// homed is the home-node state for derived tuples (Definition 2), by
	// tuple key. A record exists exactly while its derivation set is
	// non-empty, i.e. while the tuple is live.
	homed map[string]*homed

	aggSessions map[string]*aggSession // epoch -> collection state

	// pendingCands buffers result candidates until their finalize
	// deadlines; they drain in update-stamp order so ties on the
	// deadline tick cannot apply a removal before the add it targets.
	pendingCands []pendingCand
}

// visibleMatch probes the node's store for the visible entries matching
// the bound argument positions of cr's body literal i under b, in the
// engine's probe scratch. The returned slice is valid until the next
// probe.
func (rt *nodeRT) visibleMatch(cr *compiledRule, i int, b unify.Slots, tau window.Stamp) []*window.Entry {
	rt.e.cProbes.Add(1)
	l, js := &cr.lits[i], &rt.e.scratch
	if ents, scanned := rt.store.KeyedScan(l.pred.key, tau, l.pred.win, js.ents[:0]); scanned {
		// The probe would scan anyway; don't pay for the key.
		js.ents = ents
		return ents
	}
	js.cols, js.key, js.tmp = eval.AppendBoundCols(js.cols, js.key, js.tmp, cr.rule.Body[i].Args, b)
	js.ents = rt.store.VisibleMatch(l.pred.key, tau, l.pred.win, js.cols, js.key, js.ents[:0])
	return js.ents
}

// live returns pred's live replicas here — those not marked deleted — in
// insertion order, in the engine's probe scratch: valid until the next
// probe.
func (rt *nodeRT) live(pred string) []*window.Entry {
	js := &rt.e.scratch
	js.ents = rt.store.VisibleMatch(pred, window.Latest, 0, nil, nil, js.ents[:0])
	return js.ents
}

// scratch returns the match registers loaded with b: matching and
// built-ins bind into them, and restoring Set undoes an attempt.
func (rt *nodeRT) scratch(cr *compiledRule, b unify.Slots) unify.Slots {
	s := unify.Slots{Regs: rt.e.scratch.regs[:cr.nvars], Set: b.Set}
	copy(s.Regs, b.Regs)
	return s
}

// homed is one live derived tuple at its home node.
type homed struct {
	t  eval.Tuple
	id window.Stamp // its generation stamp
	// derivs is its set-of-derivations: the derivation keys that support
	// it, each with its captured lineage (nil while capture is off). It
	// is the only lineage store: Engine.Explain reads it.
	derivs map[string]*provenance.Derivation
}

// nodePlans is a node's storage and join-computation plans, computed once:
// they depend only on the node and the engine's planner, both fixed in New.
type nodePlans struct {
	storage, join gpa.Plan
}

// pendingCand is a buffered candidate with its deadline.
type pendingCand struct {
	c  *candR
	at nsim.Time
}

func newNodeRT(e *Engine, n *nsim.Node, withPlans bool) *nodeRT {
	rt := &nodeRT{
		e:           e,
		node:        n,
		store:       e.newStore(),
		homed:       make(map[string]*homed),
		aggSessions: make(map[string]*aggSession),
	}
	if withPlans {
		rt.plans = &nodePlans{storage: e.planner.Storage(n), join: e.planner.Join(n)}
	}
	return rt
}

// Init implements nsim.Handler.
func (rt *nodeRT) Init(n *nsim.Node) {}

// Timer implements nsim.Handler.
func (rt *nodeRT) Timer(n *nsim.Node, key string, data interface{}) {
	switch key {
	case timerJoinPhase:
		rt.joinPhase(data.(*updateRec))
	case timerFinalize:
		rt.drainFinalize()
	case timerAggSend:
		rt.aggSend(data.(string))
	case timerAggFinal:
		rt.aggFinal(data.(string))
	}
}

// Receive implements nsim.Handler. A walker copy handled already is
// dropped (walk.handled); a flood is exempt, since a join flood that
// followed legs still carries the walk it ended.
func (rt *nodeRT) Receive(n *nsim.Node, m *nsim.Message) {
	here := n.ID
	switch m.Kind {
	case kindStore:
		if sm := m.Payload.(*storeMsg); sm.flooding || !sm.handled(here) {
			rt.onStore(sm)
		}
	case kindJoin:
		if jm := m.Payload.(*joinMsg); jm.flooding || !jm.handled(here) {
			rt.onJoin(jm)
		}
	case kindResult:
		if rm := m.Payload.(*resultMsg); !rm.handled(here) {
			rt.walkResult(rm)
		}
	case kindAggBuild:
		rt.onAggBuild(m.Src, m.Payload.(*aggBuildMsg))
	case kindAggPartial:
		rt.onAggPartial(m.Payload.(*aggPartialMsg))
	}
}

// --- generation: a tuple is inserted or deleted at this node ---

// generate starts the storage phase of an insertion (del == nil) or a
// deletion of the tuple t, of predicate p, with original stamp *del. It
// returns the generation stamp (for inserts) or the deletion stamp (for
// deletes).
func (rt *nodeRT) generate(p *pred, t eval.Tuple, del *window.Stamp) window.Stamp {
	rt.expire()
	rt.seq++
	stamp := window.Stamp{TS: int64(rt.node.LocalTime()), Node: int(rt.node.ID), Seq: rt.seq}
	var id window.Stamp // generation stamp of the tuple itself
	var delStamp *window.Stamp
	if del == nil {
		id = stamp
	} else {
		id = *del
		ds := stamp // only a deletion pays for a stamp that escapes
		delStamp = &ds
	}
	if del == nil && p.base {
		// A tuple reported again while live keeps its earlier generations:
		// a deletion has to name every one (Engine.deleteBase).
		key := t.Key()
		g, live := rt.e.baseIDs[key]
		if live {
			g.older = append(g.older, g.last)
		}
		g.last = id
		rt.e.baseIDs[key] = g
	}
	rt.launch(p, t, id, delStamp, stamp)
	return stamp
}

// launch executes the storage and join-computation phases of a
// generation with the given stamps. Split from generate so ReplayAt
// can re-execute past generations stamp-for-stamp (replication is
// idempotent by stamp and derivation keys are stamp-determined, so a
// re-launch repairs lost state without creating divergent duplicates).
func (rt *nodeRT) launch(p *pred, t eval.Tuple, id window.Stamp, delStamp *window.Stamp, tau window.Stamp) {
	if !p.read {
		return // no rule reads it: nothing to store, nothing to join
	}
	// Storage phase.
	// The source stores first, so its store turns a flood's echoes away.
	rt.applyStoreLocal(t, id, delStamp)
	if p.placed {
		if p.place.Hops > 0 {
			rt.broadcast(&storeMsg{Tuple: t, ID: id, Del: delStamp, flood: flood{flooding: true, ttl: p.place.Hops}}, nil)
		}
	} else {
		walked := rt.storeHash(t, id, delStamp)
		if rt.plans.join.OnArrival {
			// The join runs where the storage walk ends: here, under the
			// generation stamp, when nothing walked.
			if !walked {
				rt.joinHere(p, &updateRec{Tuple: t, ID: id, Tau: tau, Del: delStamp != nil})
			}
			return
		}
	}

	// Join-computation phase after the storage settle delay (Thm 3).
	rec := &updateRec{Tuple: t, ID: id, Tau: tau, Del: delStamp != nil}
	rt.node.SetTimer(rt.e.tauS+rt.e.tauC, timerJoinPhase, rec)
}

// storeHash carries out this node's storage plan for a generation of a
// hash-placed predicate, which the node has stored, and reports whether
// a walker left to store it elsewhere.
func (rt *nodeRT) storeHash(t eval.Tuple, id window.Stamp, del *window.Stamp) bool {
	plan, join := &rt.plans.storage, rt.plans.join.OnArrival
	switch {
	case plan.Flood:
		rt.broadcast(&storeMsg{Tuple: t, ID: id, Del: del, flood: flood{flooding: true, ttl: plan.FloodTTL, band: plan.Band}}, plan.Band)
	case plan.Region != nil:
		home := rt.e.nw.Node(plan.Home(t.Key()))
		if home.ID == rt.node.ID {
			return false
		}
		rt.walkStore(&storeMsg{Tuple: t, ID: id, Del: del, joinAtEnd: join, walk: walk{x: home.X, y: home.Y, to: home}})
	case plan.Legs != nil:
		// Each leg is its own walker: the walkers are one allocation, and
		// so are their paths.
		legs := plan.Legs
		ws, buf := make([]storeMsg, len(legs)), rt.pathBuf(legs)
		for i, l := range legs {
			ws[i] = storeMsg{Tuple: t, ID: id, Del: del, sweep: l.Sweep, joinAtEnd: join, walk: walk{x: l.TargetX, y: l.TargetY, path: rt.startPath(&buf, l)}}
			rt.walkStore(&ws[i])
		}
	default:
		return false
	}
	return true
}

// applyStoreLocal stores a replica or records a deletion stamp, and
// reports whether it was news to the store.
func (rt *nodeRT) applyStoreLocal(t eval.Tuple, id window.Stamp, del *window.Stamp) bool {
	if del == nil {
		return rt.store.Insert(t, id)
	}
	return rt.store.MarkDeleted(t.Pred, id, *del)
}

// floodKey identifies a join flood in a node's join-flood set: the
// insertion or the deletion of the update with stamp id.
type floodKey struct {
	id  window.Stamp
	del bool
}

// seenJoinFlood records the join flood of update id and reports whether
// the node had seen it before.
func (rt *nodeRT) seenJoinFlood(id window.Stamp, del bool) bool {
	k := floodKey{id: id, del: del}
	if _, dup := rt.joinFloods[k]; dup {
		return true
	}
	if rt.joinFloods == nil {
		rt.joinFloods = make(map[floodKey]struct{})
	}
	rt.joinFloods[k] = struct{}{}
	return false
}

// recordTrace records an engine trace event (no-op without an attached
// trace).
func (rt *nodeRT) recordTrace(ev obs.Event) {
	if rt.e.trace != nil {
		rt.e.trace.Record(ev)
	}
}

// walkStore takes a storage walker one hop on. A walk that does not
// sweep ends in storing the replica, and perhaps joining it, where it
// ends; a sweep walker stored it on its way.
func (rt *nodeRT) walkStore(sm *storeMsg) {
	switch rt.advance(&sm.walk, sm) {
	case sent:
		return
	case stranded:
		// The walk ends where the walker stopped, as if it had arrived.
	}
	sm.ended = true
	if !sm.sweep {
		rt.applyStoreLocal(sm.Tuple, sm.ID, sm.Del)
	}
	if sm.joinAtEnd {
		// The update is joined under a stamp of the node it arrived at.
		rt.seq++
		tau := window.Stamp{TS: int64(rt.node.LocalTime()), Node: int(rt.node.ID), Seq: rt.seq}
		rt.joinHere(rt.e.preds[sm.Tuple.Pred], &updateRec{Tuple: sm.Tuple, ID: sm.ID, Tau: tau, Del: sm.Del != nil})
	}
}

// onStore handles a replication message.
func (rt *nodeRT) onStore(sm *storeMsg) {
	rt.expire()
	if sm.flooding {
		if rt.applyStoreLocal(sm.Tuple, sm.ID, sm.Del) { // not a copy the store has seen
			rt.relay(sm)
		}
		return
	}
	if sm.sweep {
		// Sweep replication: store here and keep walking.
		rt.applyStoreLocal(sm.Tuple, sm.ID, sm.Del)
	}
	rt.walkStore(sm)
}

// --- join-computation phase ---

// joinPhase runs once per update at its source node, τs+τc after the
// storage phase began.
func (rt *nodeRT) joinPhase(rec *updateRec) {
	rt.expire()
	p := rt.e.preds[rec.Tuple.Pred]
	if p.placed {
		// A placed predicate drives only local-mode rules: a localized
		// join expands fully against the local store and routes its
		// candidates to the head's placement node.
		rt.joinHere(p, rec)
		return
	}
	plan := &rt.plans.join
	if plan.Legs == nil && !plan.Flood {
		rt.joinHere(p, rec) // every replica is here
		return
	}
	var partials []*partialR
	for _, tg := range p.triggers {
		if q, ok := rt.seedPartial(tg, rec); ok {
			partials = append(partials, q)
		}
	}
	if len(partials) == 0 {
		return
	}
	switch {
	case plan.Flood:
		jm := &joinMsg{
			Update: rec.Tuple, ID: rec.ID, Tau: rec.Tau, Del: rec.Del, Partials: partials,
			flood: flood{ttl: plan.FloodTTL, band: plan.Band},
		}
		if plan.Legs == nil {
			rt.floodJoin(jm)
			return
		}
		// Walk the legs, then flood from where they end (sweepFinished).
		jm.legWalk, jm.afterLegs = along(plan.Legs, rt.walkFor(plan.Legs...)), true
		rt.walkJoin(jm)
	case rt.e.cfg.MultiPass:
		for i := range partials {
			rt.launchMultiPass(partials[i:i+1:i+1], rec)
		}
	case oneProbe(partials):
		rt.sweepBothWays(partials, rec)
	default:
		rt.walkJoin(&joinMsg{
			Update: rec.Tuple, ID: rec.ID, Tau: rec.Tau, Del: rec.Del, Partials: partials,
			legWalk: along(plan.Legs, rt.walkFor(plan.Legs...)),
		})
	}
}

// seedPartial pins the update at the trigger's body position.
func (rt *nodeRT) seedPartial(tg trigger, rec *updateRec) (*partialR, bool) {
	cr := tg.rule
	s := rt.scratch(cr, unify.Slots{})
	if !s.MatchArgs(cr.rule.Body[tg.bodyIdx].Args, rec.Tuple.Args) {
		return nil, false
	}
	// Evaluate any builtins already ground.
	done, ok := rt.runBuiltins(cr, &s, 0)
	if !ok {
		return nil, false
	}
	var p *partialR
	if tg.negated {
		// A deletion from a negated stream enables derivations (Add);
		// an insertion retracts them. The caller reads this off rec.Del.
		p = rt.e.scratch.newPartial(cr, -1, s, nil, 0, done)
	} else {
		p = rt.e.scratch.newPartial(cr, tg.bodyIdx, s, nil, 1<<uint(tg.bodyIdx), done)
		p.stamps[cr.lits[tg.bodyIdx].ord] = rec.ID
	}
	p.negGroundAtSeed = p.negReady()
	return p, true
}

// runBuiltins runs, in place on b, every built-in of cr not in done whose
// need mask b satisfies, until none is left ready; it returns the grown
// done mask, and false when one fails.
func (rt *nodeRT) runBuiltins(cr *compiledRule, b *unify.Slots, done uint64) (uint64, bool) {
	for progress := true; progress; {
		progress = false
		for todo := cr.opMask &^ done; todo != 0; todo &= todo - 1 {
			i := bits.TrailingZeros64(todo)
			op := &cr.lits[i].op
			if !op.Ready(b.Set) {
				continue
			}
			if ok, _ := builtin.Standard.Run(op, b); !ok {
				return done, false
			}
			done |= 1 << uint(i)
			progress = true
		}
	}
	return done, true
}

// complete reports whether all positive subgoals are bound and all
// builtins satisfied.
func (p *partialR) complete() bool {
	return p.bound == p.cr.posMask && p.bDone == p.cr.opMask
}

// extend tries to bind unbound positive subgoals of p against the local
// store (visible at tau), appending the new partials to out.
func (rt *nodeRT) extend(p *partialR, tau window.Stamp, onlyIdx int, out []*partialR) []*partialR {
	cr := p.cr
	if p.bound == cr.posMask {
		return out
	}
	s := rt.scratch(cr, p.b)
	for _, i := range cr.posIdx {
		bit := uint64(1) << uint(i)
		if p.bound&bit != 0 || (onlyIdx >= 0 && i != onlyIdx) {
			continue
		}
		args := cr.rule.Body[i].Args
		for _, e := range rt.visibleMatch(cr, i, p.b, tau) {
			s.Set = p.b.Set
			if !s.MatchArgs(args, e.Args) {
				continue
			}
			done, ok := rt.runBuiltins(cr, &s, p.bDone)
			if !ok {
				continue
			}
			np := rt.e.scratch.newPartial(cr, p.pinned, s, p.stamps, p.bound|bit, done)
			np.stamps[cr.lits[i].ord] = e.ID
			np.negGroundAtSeed = p.negGroundAtSeed
			rt.e.cJoins.Add(1)
			out = append(out, np)
		}
	}
	return out
}

// saturate expands partials transitively against the local store,
// returning all partials (original + derived) deduplicated by shape.
// saturate may retain and append to partials' backing array; callers
// must not reuse the argument slice after the call. Most calls extend
// nothing, so the dedup set is filled lazily on the first extension.
func (rt *nodeRT) saturate(partials []*partialR, tau window.Stamp, onlyIdx int) []*partialR {
	all := partials
	js := &rt.e.scratch
	seeded := false
	for i := 0; i < len(all); i++ {
		js.out = rt.extend(all[i], tau, onlyIdx, js.out[:0])
		if len(js.out) == 0 {
			continue
		}
		if !seeded {
			seeded = true
			for _, p := range all {
				js.seen[p.hash()] = p
			}
		}
		for _, np := range js.out {
			h := np.hash()
			if q, ok := js.seen[h]; !ok {
				js.seen[h] = np
			} else if q.same(np) {
				continue
			}
			// (A hash shared by two different partials keeps both: a
			// duplicate only costs a repeated candidate.)
			all = append(all, np)
		}
		clear(js.out) // scratch must not keep partials alive
	}
	if seeded {
		clear(js.seen)
	}
	return all
}

// hash and same identify a partial by shape — rule, pinned position and
// the tuples joined — for deduplication within a sweep, on integers.
func (p *partialR) hash() uint64 {
	const prime = 1099511628211 // FNV-1a
	h := (uint64(p.cr.rule.ID)*prime^uint64(p.pinned+1))*prime ^ p.bound
	for _, st := range p.stamps {
		h = ((h*prime^uint64(st.TS))*prime^uint64(st.Node))*prime ^ uint64(st.Seq)
	}
	return h * prime
}

func (p *partialR) same(q *partialR) bool {
	return p.cr == q.cr && p.pinned == q.pinned && p.bound == q.bound && slices.Equal(p.stamps, q.stamps)
}

// negReady reports whether all negated subgoals are ground under p.
func (p *partialR) negReady() bool {
	for _, ni := range p.cr.negIdx {
		if v := p.cr.lits[ni].vars; p.b.Set&v != v {
			return false
		}
	}
	return true
}

// negMatchLocal reports whether any local visible tuple matches a
// stamp-ordered negated subgoal of the candidate's rule under b.
// skipIdx skips the subgoal index pinned by a negated-trigger update.
func (rt *nodeRT) negMatchLocal(cr *compiledRule, b unify.Slots, tau window.Stamp, skipIdx int) bool {
	if len(cr.negIdx) == 0 {
		return false
	}
	s := rt.scratch(cr, b)
	for k, ni := range cr.negIdx {
		if ni == skipIdx {
			continue
		}
		if cr.negSameStage[k] {
			continue // same-stage negation is checked at finalize time
		}
		for _, e := range rt.visibleMatch(cr, ni, b, tau) {
			s.Set = b.Set
			if s.MatchArgs(cr.rule.Body[ni].Args, e.Args) {
				return true
			}
		}
	}
	return false
}

// mkCand converts a complete partial into a result candidate.
func (rt *nodeRT) mkCand(p *partialR, rec *updateRec, negFromStart bool) (*candR, bool) {
	cr := p.cr
	args := make([]ast.Term, len(cr.rule.Head.Args))
	for i, a := range cr.rule.Head.Args {
		v, err := builtin.Standard.EvalSlots(a, p.b)
		if err != nil || !v.Ground() {
			return nil, false
		}
		args[i] = v
	}
	// Derivation key: rule ID + positive body tuple IDs in body order
	// (Definition 2). Both the add path (positive-pinned) and the remove
	// path (negated-pinned) produce identical keys for the same tuples.
	var dkArr [96]byte
	db := append(dkArr[:0], 'r')
	db = strconv.AppendInt(db, int64(cr.rule.ID), 10)
	for _, st := range p.stamps {
		db = append(db, ';')
		db = st.AppendKey(db)
	}
	// Add/remove: a positive-pinned insert adds; a positive-pinned delete
	// removes; a negated-pinned insert removes; a negated-pinned delete
	// adds.
	add := !rec.Del
	if p.pinned < 0 {
		add = rec.Del
	}
	c := &candR{
		cr: cr, Head: eval.Tuple{Pred: cr.head.key, Args: args}, DerivKey: string(db),
		Add: add, Update: rec.Tau, negCheckedFromStart: negFromStart,
	}
	if rt.e.prov && add {
		c.Prov = rt.captureProv(p)
	}
	return c, true
}

// captureProv reconstructs the ground body tuples of a complete
// partial — its registers bind every variable of the positive
// subgoals — in body order like the deriv key's stamps, so record and
// key describe the same instantiation. Only runs with capture on;
// the disabled path never reaches it.
func (rt *nodeRT) captureProv(p *partialR) *candProv {
	body := make([]string, 0, len(p.cr.posIdx))
	for _, i := range p.cr.posIdx {
		lit := p.cr.rule.Body[i]
		args := make([]ast.Term, len(lit.Args))
		for j, a := range lit.Args {
			args[j] = p.b.Apply(a)
		}
		body = append(body, eval.Tuple{Pred: p.cr.lits[i].pred.key, Args: args}.Key())
	}
	return &candProv{Body: body, Producer: int32(rt.node.ID), SentAt: int64(rt.node.Now())}
}

// routeCand sends a candidate toward its home node.
func (rt *nodeRT) routeCand(c *candR) {
	rt.e.cCandidates.Add(1)
	head := c.Head
	if hp := c.cr.head; hp.placed {
		var kb [32]byte // the lookup key lives on the stack
		home, ok := rt.e.nodeTerms[string(head.Args[hp.place.Arg].AppendKey(kb[:0]))]
		if !ok {
			return // head names an unknown node; drop
		}
		hn := rt.e.nw.Node(home)
		rt.walkResult(&resultMsg{Cand: c, walk: walk{x: hn.X, y: hn.Y, to: hn}})
		return
	}
	tx, ty := rt.e.hasher.Location(head.Key())
	rt.walkResult(&resultMsg{Cand: c, walk: walk{x: tx, y: ty}})
}

// walkResult takes a result one hop toward its home, where it is
// buffered until its finalize deadline.
func (rt *nodeRT) walkResult(rm *resultMsg) {
	switch rt.advance(&rm.walk, rm) {
	case sent:
		if p := rm.Cand.Prov; p != nil {
			p.Hops++
		}
	case arrived:
		rm.ended = true
		rt.bufferCand(rm.Cand)
	case stranded:
		// The node where the result stranded acts as its home (best
		// effort).
		rm.ended = true
		rt.bufferCand(rm.Cand)
	}
}

// bufferCand holds a candidate until its finalize deadline: candidates
// apply in update-timestamp order (earlier updates get earlier
// deadlines; due candidates drain sorted by the full stamp order), with
// same-stage XY predicates staggered by priority — the "appropriate
// delay" extensions of Section IV.
func (rt *nodeRT) bufferCand(c *candR) {
	deadline := rt.e.finalizeDeadline(c.Update.TS, c.cr.head)
	if fl := rt.e.finalizeFloor; fl > 0 && c.Update.TS < int64(fl) {
		// Replay re-issues candidates whose update stamps — and hence
		// deadlines — are long past. Treating their timestamps as the
		// replay start keeps them buffered until the repair traffic
		// settles; the drain then applies everything in stamp order.
		if fd := rt.e.finalizeDeadline(int64(fl), c.cr.head); fd > deadline {
			deadline = fd
		}
	}
	delay := deadline - rt.node.LocalTime()
	if delay < 1 {
		delay = 1
	}
	rt.pendingCands = append(rt.pendingCands, pendingCand{c: c, at: rt.node.LocalTime() + delay})
	rt.node.SetTimer(delay, timerFinalize, nil)
}

// drainFinalize applies every due candidate in total update-stamp order.
// The due list is the engine's scratch: only the finalize timer drains.
func (rt *nodeRT) drainFinalize() {
	now := rt.node.LocalTime()
	due := rt.e.scratch.due[:0]
	rest := rt.pendingCands[:0]
	for _, pc := range rt.pendingCands {
		if pc.at <= now {
			due = append(due, pc.c)
		} else {
			rest = append(rest, pc)
		}
	}
	// The dropped tail still points at the candidates now due: clear it,
	// or a settled candidate stays reachable, with its keys, head and
	// partial, for as long as the node lives.
	clear(rt.pendingCands[len(rest):])
	rt.pendingCands = rest
	slices.SortStableFunc(due, func(a, b *candR) int {
		switch {
		case a.Update != b.Update:
			if a.Update.Less(b.Update) {
				return -1
			}
			return 1
		case a.DerivKey != b.DerivKey:
			return strings.Compare(a.DerivKey, b.DerivKey)
		case a.Add == b.Add:
			return 0
		case a.Add:
			return -1 // adds before removes on the (impossible in practice) exact tie
		}
		return 1
	})
	for _, c := range due {
		rt.e.cSettles.Add(1)
		rt.recordTrace(obs.Event{At: int64(rt.node.Now()), Node: int32(rt.node.ID), Peer: -1, Kind: obs.EvSettle, Pred: c.Head.Pred})
		if rt.e.hSettle != nil {
			// Settle latency: triggering update's visibility stamp to
			// finalize application. Local stamps can run slightly ahead of
			// global time (clock skew), so clamp into the first bucket.
			rt.e.hSettle.Observe(int64(rt.node.Now()) - c.Update.TS)
			rt.e.hFanin.Observe(int64(len(c.cr.posIdx)))
			if c.Prov != nil {
				rt.e.hHops.Observe(int64(c.Prov.Hops))
			}
		}
		rt.finalize(c)
	}
	clear(due)
	rt.e.scratch.due = due[:0]
}

// finalize applies a candidate's derivation delta at this home node.
func (rt *nodeRT) finalize(c *candR) {
	// Same-stage (XY) negation — and every negation of a local-mode rule
	// — is verified here against the current live state.
	if c.Add {
		for k, ni := range c.cr.negIdx {
			if c.cr.mode != localMode && !c.cr.negSameStage[k] {
				continue // already filtered during the sweep by stamp order
			}
			if rt.liveNegMatch(ni, c) {
				return
			}
		}
	}
	hp := c.cr.head
	head := c.Head.Keyed() // one key string for the homed map and the log
	key := head.Key()
	h := rt.homed[key]
	if c.Add {
		fresh := h == nil
		if fresh {
			h = &homed{t: head, derivs: make(map[string]*provenance.Derivation)}
			rt.homed[key] = h
			rt.e.homeChanged(hp, head, true, rt.node.ID)
		}
		if _, held := h.derivs[c.DerivKey]; !held {
			var d *provenance.Derivation
			if rt.e.prov {
				d = &provenance.Derivation{Record: provenance.Record{
					Rule: int32(c.cr.rule.ID), Producer: c.Prov.Producer, Settler: int32(rt.node.ID),
					Hops: c.Prov.Hops, SentAt: c.Prov.SentAt, SettledAt: int64(rt.node.Now()),
					Head: key, DerivKey: c.DerivKey,
				}, Body: c.Prov.Body}
			}
			rt.e.holdDeriv(h, c.DerivKey, d)
		}
		if fresh {
			rt.e.cDerivations.Add(1)
			hp.derive.Add(1)
			rt.recordTrace(obs.Event{At: int64(rt.node.Now()), Node: int32(rt.node.ID), Peer: -1, Kind: obs.EvDerive, Pred: c.Head.Pred})
			h.id = rt.generate(hp, c.Head, nil)
		}
		return
	}
	if h == nil {
		return // unknown derivation: harmless no-op (Section IV-A)
	}
	d, held := h.derivs[c.DerivKey]
	if !held {
		return
	}
	delete(h.derivs, c.DerivKey)
	if d != nil {
		rt.e.provLive.Add(-1)
	}
	if len(h.derivs) == 0 {
		delete(rt.homed, key)
		rt.e.homeChanged(hp, h.t, false, rt.node.ID)
		rt.e.cDeletions.Add(1)
		hp.del.Add(1)
		rt.recordTrace(obs.Event{At: int64(rt.node.Now()), Node: int32(rt.node.ID), Peer: -1, Kind: obs.EvDelete, Pred: c.Head.Pred})
		rt.generate(hp, c.Head, &h.id)
	}
}

// liveNegMatch checks negated subgoal ni of the candidate's rule against
// the node's current state: replicas not marked deleted, plus derived
// tuples homed here. The candidate carries no bindings (it was resolved
// at emit time, and sizeOf is the paper's cost metric), so the negated
// variables are rebound by matching the head pattern against the settled
// tuple; New has checked that this reaches every one of them.
func (rt *nodeRT) liveNegMatch(ni int, c *candR) bool {
	cr := c.cr
	s := rt.scratch(cr, unify.Slots{})
	if !s.MatchArgs(cr.headPat, c.Head.Args) {
		return false
	}
	head, pred, args := s.Set, cr.lits[ni].pred.key, cr.rule.Body[ni].Args
	for _, e := range rt.live(pred) {
		if s.Set = head; s.MatchArgs(args, e.Args) {
			return true
		}
	}
	for _, h := range rt.homed {
		if h.t.Pred != pred {
			continue
		}
		if s.Set = head; s.MatchArgs(args, h.t.Args) {
			return true
		}
	}
	return false
}

// --- local-mode and local-hash expansion ---

// expandHere seeds tg's partial from the update and saturates it against
// the local store only, routing the complete results: a local-mode rule
// (every negation deferred to finalize at the home), or a hash-mode rule
// where all replicas are local (joinHere), whose stamp-ordered negation
// is then local too. The partials, seed included, never leave the node —
// a candidate copies what it needs — so they are drawn from the slab and
// released on return. This is the one
// place the slab is switched on.
func (rt *nodeRT) expandHere(tg trigger, rec *updateRec) {
	js := &rt.e.scratch
	js.local = true
	defer js.release()
	p, ok := rt.seedPartial(tg, rec)
	if !ok {
		return
	}
	all := rt.saturate(append(js.all[:0], p), rec.Tau, -1)
	for _, q := range all {
		if !q.complete() {
			continue
		}
		if q.cr.mode == hashMode {
			skip := -1
			if q.pinned < 0 {
				skip = rt.pinnedNegIdx(q, rec)
			}
			if rt.negMatchLocal(q.cr, q.b, rec.Tau, skip) {
				continue
			}
		}
		if c, ok := rt.mkCand(q, rec, true); ok {
			rt.routeCand(c)
		}
	}
	clear(all)
	js.all = all[:0]
}

// pinnedNegIdx recovers which negated subgoal the update pinned (the one
// whose predicate matches the update and whose args match under p).
func (rt *nodeRT) pinnedNegIdx(p *partialR, rec *updateRec) int {
	s := rt.scratch(p.cr, p.b)
	for _, ni := range p.cr.negIdx {
		if p.cr.lits[ni].pred.key != rec.Tuple.Pred {
			continue
		}
		if s.Set = p.b.Set; s.MatchArgs(p.cr.rule.Body[ni].Args, rec.Tuple.Args) {
			return ni
		}
	}
	return -1
}

// joinHere joins an update of predicate p against this node's store
// alone: the join plan of a placed predicate, and of a scheme that brings
// every replica to one node (NaiveBroadcast's source, the Centralized
// server).
func (rt *nodeRT) joinHere(p *pred, rec *updateRec) {
	for _, tg := range p.triggers {
		rt.expandHere(tg, rec)
	}
}

// --- sweeping join walkers ---

// onJoin processes a join walker or flood arriving at this node.
func (rt *nodeRT) onJoin(jm *joinMsg) {
	rt.expire()
	if jm.flooding {
		if !rt.seenJoinFlood(jm.ID, jm.Del) {
			rt.processJoinHere(jm)
			rt.relay(jm)
		}
		return
	}
	if jm.legs[jm.leg].Sweep {
		rt.processJoinHere(jm)
	}
	rt.walkJoin(jm)
}

// processJoinHere expands the walker's partials against the local store
// and filters pending completes against local negated tuples.
func (rt *nodeRT) processJoinHere(jm *joinMsg) {
	rec := &updateRec{Tuple: jm.Update, ID: jm.ID, Tau: jm.Tau, Del: jm.Del}
	if !jm.Verify {
		onlyIdx := -1
		if jm.PassRule != nil {
			onlyIdx = rt.passSubgoal(jm)
		}
		all := rt.saturate(jm.Partials, jm.Tau, onlyIdx)
		// still collects the partials that travel on. At most sweep nodes
		// nothing is added and nothing completes: the walker's list is
		// kept as it is instead of being copied.
		keep := len(all) == len(jm.Partials)
		var still []*partialR
		for i, p := range all {
			if !p.complete() {
				if !keep {
					still = append(still, p)
				}
				continue
			}
			if keep {
				keep, still = false, append(still, all[:i]...)
			}
			skip := -1
			if p.pinned < 0 {
				skip = rt.pinnedNegIdx(p, rec)
			}
			negFromStart := p.negGroundAtSeed
			if !p.regionNeg() {
				if !rt.negMatchLocal(p.cr, p.b, jm.Tau, skip) {
					if c, ok := rt.mkCand(p, rec, true); ok {
						rt.routeCand(c)
					}
				}
				continue
			}
			// Carry to the end of the sweep, filtering along the way.
			if rt.negMatchLocal(p.cr, p.b, jm.Tau, skip) {
				continue
			}
			if c, ok := rt.mkCand(p, rec, negFromStart); ok {
				c.pend, c.pendSkip = p, skip
				jm.Pending = append(jm.Pending, c)
			}
		}
		if !keep {
			jm.Partials = still
		}
	}
	// Filter pending completes against local negated tuples.
	var surv []*candR
	for _, c := range jm.Pending {
		if rt.negMatchLocal(c.cr, c.pend.b, jm.Tau, c.pendSkip) {
			continue
		}
		surv = append(surv, c)
	}
	jm.Pending = surv
}

// passSubgoal returns the body index the current multi-pass iteration
// expands for the walker's rule.
func (rt *nodeRT) passSubgoal(jm *joinMsg) int {
	var remaining []int
	for _, i := range jm.PassRule.posIdx {
		if i != jm.PassPin {
			remaining = append(remaining, i)
		}
	}
	if len(remaining) == 0 {
		return -1
	}
	if jm.Pass >= len(remaining) {
		return remaining[len(remaining)-1]
	}
	return remaining[jm.Pass]
}

// walkJoin takes a join walker one hop along its legs; at the end of the
// last leg it emits surviving pending candidates, launches a
// verification pass for late-ground negations, or starts the next
// multi-pass iteration.
func (rt *nodeRT) walkJoin(jm *joinMsg) {
	switch rt.advance(&jm.walk, jm) {
	case sent:
		return
	case stranded:
		// The leg ends where the walker stopped.
	}
	if jm.nextLeg(rt.node.ID) {
		if jm.legs[jm.leg].Sweep {
			// The transition node is the first node of the sweep leg;
			// process it here — onJoin only fires on arrivals.
			rt.processJoinHere(jm)
		}
		rt.walkJoin(jm)
		return
	}
	jm.ended = true
	rt.sweepFinished(jm)
}

// floodJoin starts the join flood of jm at this node: the node marks the
// flood as seen, so no copy that comes back is processed again, joins it
// here and relays it.
func (rt *nodeRT) floodJoin(jm *joinMsg) {
	jm.flooding = true
	rt.seenJoinFlood(jm.ID, jm.Del)
	rt.processJoinHere(jm)
	rt.relay(jm)
}

// sweepFinished handles end-of-region logic.
func (rt *nodeRT) sweepFinished(jm *joinMsg) {
	if jm.afterLegs {
		rt.floodJoin(jm)
		return
	}
	// Multi-pass: start the next iteration if subgoals remain. A
	// positive pin consumes one subgoal; a negated pin consumes none.
	if jm.PassRule != nil {
		remaining := len(jm.PassRule.posIdx)
		if jm.PassPin >= 0 {
			remaining--
		}
		live := false
		for _, p := range jm.Partials {
			if !p.complete() {
				live = true
			}
		}
		if jm.Pass+1 < remaining && live {
			nm := *jm
			nm.Pass++
			nm.legWalk = along(jm.legs, rt.walkFor(jm.legs...)) // never jm's path
			rt.walkJoin(&nm)
			return
		}
	}
	// Emit survivors that were checked over the whole region; re-verify
	// the rest with one more pass.
	var needVerify []*candR
	for _, c := range jm.Pending {
		if jm.Verify || c.negCheckedFromStart {
			rt.routeCand(c)
		} else {
			needVerify = append(needVerify, c)
		}
	}
	jm.Pending = nil
	if len(needVerify) > 0 {
		rt.walkJoin(&joinMsg{
			Update: jm.Update, ID: jm.ID, Tau: jm.Tau, Del: jm.Del,
			Pending: needVerify, Verify: true,
			legWalk: along(jm.legs, rt.walkFor(jm.legs...)),
		})
	}
}

// launchMultiPass starts a one-rule multi-pass walker for the one partial
// in p. A partial one probe from complete needs a single pass, and that
// pass is the two-way sweep the one-pass scheme makes of it.
func (rt *nodeRT) launchMultiPass(p []*partialR, rec *updateRec) {
	if oneProbe(p) {
		rt.sweepBothWays(p, rec)
		return
	}
	legs := rt.plans.join.Legs
	rt.walkJoin(&joinMsg{
		Update: rec.Tuple, ID: rec.ID, Tau: rec.Tau, Del: rec.Del,
		Partials: p,
		legWalk:  along(legs, rt.walkFor(legs...)),
		PassRule: p[0].cr, PassPin: p[0].pinned,
	})
}

// oneProbe reports whether every partial is one probe from complete:
// exactly one positive subgoal is left and no negation has to be checked
// across the region. A node's probe then emits whatever it completes and
// passes on the partials as they came, so no node's probe depends on
// another's, and the order the column is visited in does not matter.
func oneProbe(partials []*partialR) bool {
	for _, p := range partials {
		if bits.OnesCount64(p.cr.posMask&^p.bound) != 1 || p.regionNeg() {
			return false
		}
	}
	return true
}

// regionNeg reports whether p's candidates must be checked across the
// region against a negated subgoal: one the update did not pin.
func (p *partialR) regionNeg() bool {
	n := len(p.cr.negIdx)
	return n > 0 && !(p.pinned < 0 && n == 1)
}

// sweepBothWays is the join phase of partials one probe from complete
// (oneProbe): the source probes once, then one walker sweeps from it
// toward each end of the column, instead of a seek leg that probes
// nothing followed by one sweep. The walkers are one allocation, and so
// are their paths; they share the partials, which saturate never extends
// in place (their capacity is their length).
func (rt *nodeRT) sweepBothWays(partials []*partialR, rec *updateRec) {
	legs := rt.plans.join.Sweeps
	ws, buf := make([]joinMsg, len(legs)), rt.pathBuf(legs)
	src := joinMsg{Update: rec.Tuple, ID: rec.ID, Tau: rec.Tau, Del: rec.Del, Partials: partials}
	rt.processJoinHere(&src)
	n := len(src.Partials)
	for i := range ws {
		ws[i] = src
		ws[i].Partials, ws[i].legWalk = src.Partials[:n:n], along(legs[i:i+1], rt.startPath(&buf, legs[i]))
		rt.walkJoin(&ws[i])
	}
}

// expire lazily reclaims replicas past their retention. The store knows
// the earliest instant at which anything in it is due, so on a node with
// nothing to reclaim — nearly every call — this is one comparison.
func (rt *nodeRT) expire() {
	rt.e.cExpireCalls.Add(1)
	if n := rt.store.ExpireDue(int64(rt.node.LocalTime())); n > 0 {
		rt.e.cExpireDue.Add(1)
		rt.e.cExpired.Add(int64(n))
	}
}
