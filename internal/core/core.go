// Package core is the distributed deductive query engine — the paper's
// primary contribution. It compiles an analyzed logic program into
// per-node runtimes that evaluate the program bottom-up, incrementally
// and asynchronously inside a simulated sensor network:
//
//   - base facts are injected at their source nodes and stored/replicated
//     according to the Generalized Perpendicular Approach scheme in force
//     (or a node-attribute placement declared with .store);
//   - after the storage-phase delay τs+τc, an update's join-computation
//     phase sweeps its join region accumulating partial results
//     (Figure 1), filtering against negated subgoals, and emitting
//     complete results;
//   - complete results are routed to a home node (geographic hash or
//     declared placement), where the set-of-derivations store decides
//     whether the derived tuple appears or disappears (Section IV-A);
//     transitions make the derived tuple itself a stream update,
//     cascading through higher rules;
//   - deletions travel the same paths as deletion markers and remove
//     matching derivations (Theorem 3 machinery).
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/datalog/analysis"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/builtin"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/unify"
	"repro/internal/ghash"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/obs"
	"repro/internal/obs/provenance"
	"repro/internal/routing"
	"repro/internal/window"
)

// Config tunes the engine.
type Config struct {
	// Scheme is the GPA scheme for hash-placed predicates.
	Scheme gpa.Scheme
	// Server is the sink node for the Centralized scheme.
	Server nsim.NodeID
	// MultiPass switches the join-computation phase from the one-pass to
	// the multiple-pass scheme (one traversal per remaining stream).
	MultiPass bool
	// SpatialRadius scopes storage/join regions (0 = unbounded).
	SpatialRadius float64
	// BandWidth generalizes PA's rows/columns to geographic bands of this
	// width for arbitrary (non-grid) topologies. Band mode supports
	// two-stream positive joins (the paper defers the full general-
	// topology construction to [44]).
	BandWidth float64
	// DefaultWindow is the sliding-window range for streams without a
	// .window declaration (0 = unbounded).
	DefaultWindow int64
	// BatchLinks coalesces the store/join/result tuples a node emits
	// within one tick into a single framed link message per destination,
	// accounted as one shared 8-byte header plus the sum of the tuple
	// payloads. Default off: the per-tuple messages are the paper's
	// accounting unit, and every published table is produced with
	// batching disabled. The final derived database is identical either
	// way (see TestBatchLinksEquivalence).
	BatchLinks bool
	// ReplayLog keeps a per-node log of every generation (insert or
	// delete, base or cascaded derived) so Engine.ReplayAt can repair
	// state lost to injected faults by re-executing the log with the
	// original stamps (see replay.go). Default off: the log is pure
	// overhead on fault-free runs and would perturb the allocation
	// baselines.
	ReplayLog bool
}

// deriveBounds sets the engine's timing bounds from the network: τs and
// τj from its geometry at the slowest per-hop delay, τc from its clock
// skew, and a finalize gap that separates same-stage predicates by a
// storage phase plus four hops.
func (e *Engine) deriveBounds() {
	minX, minY, maxX, maxY := routing.Bounds(e.nw)
	diamHops := nsim.Time((maxX-minX)+(maxY-minY)) + 4
	e.tauS = 2 * diamHops * nsim.MaxDelay
	e.tauC = e.nw.Config().MaxSkew
	e.tauJ = 2 * diamHops * nsim.MaxDelay
	e.finalizeGap = e.tauS + e.tauC + 4*nsim.MaxDelay
}

// ruleMode distinguishes hash-placed (GPA) rules from node-placement
// (localized-join) rules.
type ruleMode int

const (
	hashMode ruleMode = iota
	localMode
)

// compiledRule is the per-rule execution plan. The rule is compiled once
// to variable slots: a partial result carries a register file of nvars
// terms, and every literal, built-in and head argument addresses it by
// slot (DESIGN.md, "The node-runtime join").
type compiledRule struct {
	rule   *ast.Rule // variables numbered (ast.Rule.NumberVars): a Var's Int is its register
	nvars  int
	mode   ruleMode
	posIdx []int // positive relational body indices, in order
	negIdx []int
	// negSameStage[i] = true when negIdx[i] refers to a predicate in the
	// head's XY component (checked at finalize against live state rather
	// than by stamp order).
	negSameStage []bool
	lits         []compiledLit // by body index
	posMask      uint64        // body indices of the positive subgoals
	opMask       uint64        // body indices of the built-ins
	headPred     string
	// headPat is the head as a pattern over a settled tuple: arguments the
	// registry evaluates (D + 1) cannot be matched back, so they are
	// wildcards. liveNegMatch rebinds the negated variables through it.
	headPat []ast.Term
}

// compiledLit is what a probe or a built-in evaluation needs of body
// literal i, worked out once.
type compiledLit struct {
	pred string     // predicate key ("" for a built-in)
	win  int64      // its window range
	ord  int        // ordinal among the positive subgoals: the partial's stamp index
	vars uint64     // slots a relational literal's arguments mention
	op   builtin.Op // the built-in, compiled
}

// trigger links a stream update to a rule evaluation.
type trigger struct {
	rule    *compiledRule
	bodyIdx int  // which body literal the update pins
	negated bool // pinned at a negated subgoal (retraction/enable path)
}

// Engine is the compiled distributed program.
type Engine struct {
	nw   *nsim.Network
	prog *ast.Program
	res  *analysis.Result
	cfg  Config
	// tauS bounds storage-phase completion, tauC is the clock-skew bound
	// and tauJ bounds join-phase completion; finalizeGap separates the
	// finalize delays of same-stage predicates (XY evaluation order). All
	// four are derived from the network (deriveBounds).
	tauS, tauC, tauJ, finalizeGap nsim.Time
	// router caches nearest-node lookups for the geographic-unicast
	// termination test, which every walker hop performs.
	router *routing.Engine

	rules    []*compiledRule
	triggers map[string][]trigger // predKey -> triggers
	// read holds the predicates some rule body reads: every trigger's,
	// positive or negated, and every aggregate rule's relational subgoal.
	// Only these have a storage region (launch); a generation of any other
	// predicate is stored nowhere and starts no join phase.
	read      map[string]bool
	hasher    *ghash.Hasher
	planner   *gpa.Planner
	nodeTerms map[string]nsim.NodeID // term key -> node
	// finalizePrio orders same-stage predicates (XY witness); predicates
	// absent from the map finalize with priority 0.
	finalizePrio map[string]int
	// windows per predicate (0 = unbounded).
	windows map[string]int64
	// windowPreds lists the predicates with a positive window range: the
	// ones whose retention every node's store is told (newStore).
	windowPreds []string
	// placements per predicate.
	placements map[string]ast.Placement
	// queryPreds marks predicates whose transitions are logged.
	queryPreds map[string]bool

	rts []*nodeRT // per-node runtimes, indexed by NodeID
	// arena backs the entries of every node's replica store (newStore).
	arena *window.Arena
	// maxVars is the widest rule's register count.
	maxVars int
	scratch joinScratch

	// baseIDs registers the live generations of every injected base tuple
	// for later deletion, by tuple key.
	baseIDs map[string]baseGens

	// derived is the network's derived set as one database: the union of
	// the nodes' homed records, updated at the three places such a record
	// appears or disappears (finalize, seedDerivedFact, the replay wipe).
	// Derived, DerivedDB and the serving layer read it. A fault can home
	// one tuple at two nodes at once;
	// extraHomes counts a tuple's homes beyond the first, and holds only
	// tuples that have one.
	derived    *eval.Database
	extraHomes map[string]int
	// derivedVer counts, per predicate, the changes of its derived set: a
	// tuple appearing or disappearing, a replay wipe. It only ever grows,
	// across Replay too.
	derivedVer map[string]uint64

	// centroidNodes is the Centroid scheme's storage region: the nodes
	// within centroidRadius of the bounding-box center (centroidX,
	// centroidY), where every join walker seeks before flooding the
	// region. Positions are fixed once the nodes are placed, so the
	// center is computed once, in New.
	centroidNodes        []nsim.NodeID
	centroidRadius       float64
	centroidX, centroidY float64

	// knownPreds holds every predicate key the program mentions (rule
	// heads and bodies, base declarations, windows, placements,
	// queries); injection validation checks against it.
	knownPreds map[string]bool

	// Observability handles (observe.go). All nil until Observe is
	// called: the nil counter/trace are no-ops, so the uninstrumented
	// hot path pays one predictable nil check per site.
	trace        *obs.Trace
	cProbes      *obs.Counter
	cJoins       *obs.Counter
	cCandidates  *obs.Counter
	cSettles     *obs.Counter
	cDerivations *obs.Counter
	cDeletions   *obs.Counter
	cExpireCalls *obs.Counter
	cExpireDue   *obs.Counter
	cExpired     *obs.Counter
	predDerive   map[string]*obs.Counter
	predDelete   map[string]*obs.Counter
	cStranded    map[string]*obs.Counter // by frame kind
	// Histograms (Observe with a registry): settle latency, candidate
	// routing hops, derivation fan-in. Nil histograms are no-ops.
	hSettle *obs.Histogram
	hHops   *obs.Histogram
	hFanin  *obs.Histogram
	// prov switches lineage capture on (Deploy): each entry of a home
	// node's set-of-derivations then holds its provenance.Derivation.
	// provLive/provCaptured count the held records and every record ever
	// captured; Replay zeroes both with the store.
	prov                   bool
	provLive, provCaptured atomic.Int64

	// TAG aggregation state.
	aggRules   map[string]*aggRule     // head pred -> plan
	aggResults map[string][]eval.Tuple // head pred -> last epoch result
	aggEpoch   int64

	// ResultLog records finalized transitions of query predicates. A
	// holder may drop it at any time; resultsLogged keeps the lifetime
	// count (core.results_logged).
	ResultLog     []ResultEvent
	resultsLogged int64

	// finalizeFloor lifts finalize deadlines of candidates carrying
	// pre-floor update stamps, so a replay's re-issued candidates (old
	// stamps, deadlines long past) all buffer until the repair traffic
	// settles and then apply in one stamp-ordered drain — restoring the
	// Theorem 3 ordering that the original deadlines enforced. Raised to
	// the current time by each ReplayAt; zero until then.
	finalizeFloor nsim.Time
}

// ResultEvent is one visible transition of a query predicate.
type ResultEvent struct {
	Tuple  eval.Tuple
	Insert bool
	At     nsim.Time // global time of finalization
	Node   nsim.NodeID
}

// New compiles prog onto the network. Must be called before nw.Finalize;
// Deploy runs the whole assembly.
func New(nw *nsim.Network, prog *ast.Program, cfg Config) (*Engine, error) {
	if nw.Len() == 0 {
		return nil, validationErrorf(ErrBadNetwork, "core: the network has no nodes")
	}
	if loss := nw.Config().LossRate; !(loss >= 0 && loss < 1) {
		return nil, validationErrorf(ErrBadNetwork, "core: loss rate %g outside [0, 1)", loss)
	}
	res, err := analysis.Analyze(prog)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		nw:           nw,
		prog:         prog,
		res:          res,
		cfg:          cfg,
		router:       routing.NewEngine(nw),
		triggers:     make(map[string][]trigger),
		read:         make(map[string]bool),
		hasher:       ghash.ForNetwork(nw),
		planner:      gpa.NewPlanner(nw, cfg.Scheme),
		nodeTerms:    make(map[string]nsim.NodeID),
		finalizePrio: make(map[string]int),
		windows:      make(map[string]int64),
		placements:   prog.Placements,
		queryPreds:   make(map[string]bool),
		baseIDs:      make(map[string]baseGens),
		arena:        window.NewArena(),
		derived:      eval.NewDatabase(),
		derivedVer:   make(map[string]uint64),
		aggRules:     make(map[string]*aggRule),
		aggResults:   make(map[string][]eval.Tuple),
	}
	e.deriveBounds()
	// Aggregate rules are evaluated by TAG collection epochs, not by the
	// join machinery; validate and register them.
	for _, r := range prog.Rules {
		if !r.HasAggregates() {
			continue
		}
		plan, err := validateAggregateRule(r)
		if err != nil {
			return nil, err
		}
		e.aggRules[r.Head.PredKey()] = plan
	}
	e.planner.Server = cfg.Server
	e.planner.SpatialRadius = cfg.SpatialRadius
	e.planner.BandWidth = cfg.BandWidth
	for _, n := range nw.Nodes() {
		e.nodeTerms[ast.Symbol(fmt.Sprintf("n%d", n.ID)).Key()] = n.ID
	}
	for _, w := range res.XY {
		for i, p := range w.SameStageOrder {
			e.finalizePrio[p] = i
		}
	}
	for _, q := range prog.Queries {
		e.queryPreds[q] = true
	}
	// Window ranges.
	allPreds := map[string]bool{}
	for _, r := range prog.Rules {
		allPreds[r.Head.PredKey()] = true
		for _, l := range r.Body {
			if !l.Builtin {
				allPreds[l.PredKey()] = true
			}
		}
	}
	for p := range allPreds {
		if w, ok := prog.Windows[p]; ok {
			e.windows[p] = w
		} else {
			e.windows[p] = cfg.DefaultWindow
		}
	}

	e.knownPreds = make(map[string]bool, len(allPreds))
	for p := range allPreds {
		e.knownPreds[p] = true
	}
	for p := range prog.Base {
		e.knownPreds[p] = true
	}
	for p := range prog.Windows {
		e.knownPreds[p] = true
	}
	for p := range prog.Placements {
		e.knownPreds[p] = true
	}
	for _, p := range prog.Queries {
		e.knownPreds[p] = true
	}

	if cfg.Scheme == gpa.Centroid {
		e.centroidRadius = 1.5 * nw.Config().Range
		minX, minY, maxX, maxY := routing.Bounds(nw)
		cx, cy := (minX+maxX)/2, (minY+maxY)/2
		e.centroidX, e.centroidY = cx, cy
		for _, n := range nw.Nodes() {
			dx, dy := n.X-cx, n.Y-cy
			if dx*dx+dy*dy <= e.centroidRadius*e.centroidRadius+1e-9 {
				e.centroidNodes = append(e.centroidNodes, n.ID)
			}
		}
		if len(e.centroidNodes) == 0 {
			e.centroidNodes = []nsim.NodeID{nw.NearestNode(cx, cy).ID}
		}
	}

	if err := e.compileRules(); err != nil {
		return nil, err
	}
	e.scratch = newJoinScratch(e.maxVars)
	// Only a predicate some rule reads is ever stored, so only those have
	// a retention for the stores to know.
	for p, w := range e.windows {
		if w > 0 && e.read[p] {
			e.windowPreds = append(e.windowPreds, p)
		}
	}
	sort.Strings(e.windowPreds)

	// Attach runtimes. Their storage and join plans serve the hash-placed
	// predicates rules read; without one, no node needs them.
	hashRead := false
	for p := range e.read {
		if _, placed := e.placements[p]; !placed {
			hashRead = true
		}
	}
	e.rts = make([]*nodeRT, nw.Len())
	for _, n := range nw.Nodes() {
		rt := newNodeRT(e, n, hashRead)
		e.rts[n.ID] = rt
		n.App = rt
	}
	return e, nil
}

// Deploy is the one assembly of a deployment: it compiles prog onto nw,
// attaches the observers, finalizes the network and starts the engine.
// Either of reg and trace may be nil; prov switches provenance capture
// on. The observers attach before Start, so the program's seeded facts
// are traced and captured.
func Deploy(nw *nsim.Network, prog *ast.Program, cfg Config, reg *obs.Registry, trace *obs.Trace, prov bool) (*Engine, error) {
	e, err := New(nw, prog, cfg)
	if err != nil {
		return nil, err
	}
	nw.Observe(reg, trace)
	e.Observe(reg, trace)
	if prov {
		e.captureProvenance(reg)
	}
	nw.Finalize()
	e.Start()
	return e, nil
}

// compileRules classifies each rule and builds the trigger index.
func (e *Engine) compileRules() error {
	for _, r := range e.prog.Rules {
		for _, l := range r.Body {
			if !l.Builtin {
				e.read[l.PredKey()] = true
			}
		}
		if len(r.Body) == 0 {
			continue // facts are injected at start
		}
		if r.HasAggregates() {
			continue // evaluated by TAG collection epochs
		}
		nr, nvars := r.NumberVars()
		cr := &compiledRule{
			rule: nr, nvars: nvars, lits: make([]compiledLit, len(r.Body)),
			headPred: r.Head.PredKey(),
		}
		r = nr
		for i, l := range r.Body {
			cl := &cr.lits[i]
			if l.Builtin {
				cl.op, cr.opMask = builtin.Compile(l), cr.opMask|1<<uint(i)
				continue
			}
			cl.pred, cl.vars = l.PredKey(), unify.SlotMask(l.Args...)
			cl.win = e.windows[cl.pred]
			if l.Negated {
				cr.negIdx = append(cr.negIdx, i)
			} else {
				cl.ord = len(cr.posIdx)
				cr.posIdx = append(cr.posIdx, i)
				cr.posMask |= 1 << uint(i)
			}
		}
		for _, a := range r.Head.Args {
			cr.headPat = append(cr.headPat, e.matchablePattern(a))
		}
		if nvars > e.maxVars {
			e.maxVars = nvars
		}
		// Mode: local if the head and every relational subgoal have a
		// declared placement.
		local := true
		if _, ok := e.placements[r.Head.PredKey()]; !ok {
			local = false
		}
		for _, l := range r.Body {
			if l.Builtin {
				continue
			}
			if _, ok := e.placements[l.PredKey()]; !ok {
				local = false
			}
		}
		if local {
			cr.mode = localMode
		} else {
			// Mixed placements are not supported: a placed predicate has
			// no GPA storage region, so a hash-mode sweep would miss it.
			for _, l := range r.Body {
				if l.Builtin {
					continue
				}
				if _, ok := e.placements[l.PredKey()]; ok {
					return fmt.Errorf("core: rule %d mixes placed predicate %s with hash-placed ones; declare placements for all of the rule's predicates or none", r.ID, l.PredKey())
				}
			}
			if _, ok := e.placements[r.Head.PredKey()]; ok {
				return fmt.Errorf("core: rule %d has a placed head %s but hash-placed body", r.ID, r.Head.PredKey())
			}
			cr.mode = hashMode
		}
		// Same-stage negation flags. Negations checked at finalize time
		// (local-mode rules and same-stage XY negations) rebind their
		// variables by matching the settled head tuple against headPat, so
		// every one must occur in the head where matching can reach it.
		matchable := unify.SlotMask(cr.headPat...)
		for _, ni := range cr.negIdx {
			same := e.sameXYComponent(cr.headPred, cr.lits[ni].pred)
			cr.negSameStage = append(cr.negSameStage, same)
			if (same || cr.mode == localMode) && cr.lits[ni].vars&^matchable != 0 {
				return validationErrorf(ErrNegationNeedsHead, "core: rule %d: %s is checked at the head's home node by matching the settled head tuple, so each of its variables must appear in the head outside any evaluated expression; bind the expression in the body (D1 = D + 1) and use that variable in the head and in the negated subgoal",
					r.ID, r.Body[ni])
			}
		}
		e.rules = append(e.rules, cr)
		for i, l := range r.Body {
			if l.Builtin {
				continue
			}
			e.triggers[l.PredKey()] = append(e.triggers[l.PredKey()], trigger{
				rule: cr, bodyIdx: i, negated: l.Negated,
			})
		}
	}
	// The LocalStorage scheme floods updates and joins at each node;
	// partial results cannot be accumulated coherently across a flood, so
	// it only supports two-stream positive rules. The same restriction
	// applies to band-mode PA on arbitrary topologies.
	if e.cfg.Scheme == gpa.LocalStorage || e.cfg.Scheme == gpa.Centroid ||
		(e.cfg.Scheme == gpa.Perpendicular && e.cfg.BandWidth > 0) {
		for _, cr := range e.rules {
			if cr.mode == hashMode && (len(cr.posIdx) > 2 || len(cr.negIdx) > 0) {
				return fmt.Errorf("core: flood-based join regions (local-storage or band-PA) support only two-stream positive joins (rule %d)", cr.rule.ID)
			}
		}
	}
	return nil
}

// matchablePattern returns head argument a as a pattern over its settled
// value: a compound the registry evaluates becomes a wildcard.
func (e *Engine) matchablePattern(a ast.Term) ast.Term {
	if a.Kind != ast.KindCompound {
		return a
	}
	if builtin.Standard.Evaluates(a.Str, len(a.Args)) {
		return ast.Term{Kind: ast.KindVar, Str: ast.AnonymousVar, Int: -1}
	}
	args := make([]ast.Term, len(a.Args))
	for i, x := range a.Args {
		args[i] = e.matchablePattern(x)
	}
	return ast.Compound(a.Str, args...)
}

func (e *Engine) sameXYComponent(a, b string) bool {
	for _, w := range e.res.XY {
		_, hasA := w.StageArg[a]
		_, hasB := w.StageArg[b]
		if hasA && hasB {
			return true
		}
	}
	return false
}

// Start injects the program's facts (at their placement nodes, or their
// geographic home for hash-placed predicates). Call after nw.Finalize.
func (e *Engine) Start() {
	for _, f := range e.prog.Facts() {
		f := f
		t := eval.Tuple{Pred: f.Head.PredKey(), Args: f.Head.Args}
		nodeID := e.homeFor(t)
		if e.prog.IsDerived(t.Pred) {
			e.nw.ScheduleAt(e.nw.Now(), func() {
				e.seedDerivedFact(f.ID, t, nodeID)
			})
			continue
		}
		e.Inject(nodeID, t)
	}
}

// seedDerivedFact seeds a program fact of a derived predicate as a
// nullary derivation at its home, so it shows up in the derived state
// like any rule-derived tuple. Shared by Start and the replay pass
// (which wipes derivation state and must re-seed).
func (e *Engine) seedDerivedFact(ruleID int, t eval.Tuple, nodeID nsim.NodeID) {
	rt := e.rts[nodeID]
	t = t.Keyed()
	key := t.Key()
	h := rt.homed[key]
	if h == nil {
		h = &homed{derivs: make(map[string]*provenance.Derivation)}
		rt.homed[key] = h
		e.homeAdded(t)
	}
	dk := fmt.Sprintf("fact:r%d", ruleID)
	var d *provenance.Derivation
	if e.prov {
		now := int64(e.nw.Now())
		d = &provenance.Derivation{Record: provenance.Record{
			Rule: int32(ruleID), Producer: int32(nodeID), Settler: int32(nodeID),
			SentAt: now, SettledAt: now, Head: key, DerivKey: dk,
		}}
	}
	e.holdDeriv(h, dk, d)
	h.t, h.id = t, rt.generate(t, nil)
}

// holdDeriv adds derivation dk, which h does not hold yet, to h's
// set-of-derivations with its captured record d (nil when capture is
// off), and counts the record.
func (e *Engine) holdDeriv(h *homed, dk string, d *provenance.Derivation) {
	h.derivs[dk] = d
	if d != nil {
		e.provLive.Add(1)
		e.provCaptured.Add(1)
	}
}

// homeFor returns the node where tuple t should originate: its placement
// node if declared, else its geographic-hash home.
func (e *Engine) homeFor(t eval.Tuple) nsim.NodeID {
	if pl, ok := e.placements[t.Pred]; ok {
		if id, ok2 := e.nodeTerms[t.Args[pl.Arg].Key()]; ok2 {
			return id
		}
	}
	return e.hasher.Home(e.nw, t.Key()).ID
}

// validateInject rejects the misuse cases the runtime previously
// accepted silently (or crashed on later): out-of-range nodes,
// non-ground tuples, derived predicates (those are produced by rules,
// never injected), unknown predicates, and arity mismatches against
// the program's declarations. Each failure wraps the matching
// sentinel (ErrBadNode, ErrNotGround, ErrDerivedPredicate,
// ErrUnknownPredicate, ErrArity) for errors.Is dispatch; the messages
// are unchanged.
func (e *Engine) validateInject(node nsim.NodeID, t eval.Tuple) error {
	if int(node) < 0 || int(node) >= e.nw.Len() {
		return validationErrorf(ErrBadNode, "core: inject %s: node %d out of range [0, %d)", t, node, e.nw.Len())
	}
	for _, a := range t.Args {
		if !a.Ground() {
			return validationErrorf(ErrNotGround, "core: inject %s: argument %s is not ground", t, a)
		}
	}
	if e.prog.IsDerived(t.Pred) {
		return validationErrorf(ErrDerivedPredicate, "core: inject %s: %s is a derived predicate (derived tuples come from rules, not injection)", t, t.Pred)
	}
	if !e.knownPreds[t.Pred] {
		name := t.Name() + "/"
		for p := range e.knownPreds {
			if len(p) > len(name) && p[:len(name)] == name {
				return validationErrorf(ErrArity, "core: inject %s: arity mismatch (program declares %s, got %s)", t, p, t.Pred)
			}
		}
		return validationErrorf(ErrUnknownPredicate, "core: inject %s: predicate %s not mentioned by the program", t, t.Pred)
	}
	return nil
}

// Validate runs injection validation without scheduling anything: the
// same checks, sentinels and messages Inject/InjectAt/InjectDeleteAt
// apply. The serving layer's write batching validates at enqueue time
// so a deferred apply can never fail; the checks depend only on the
// immutable program and topology, so a tuple that validates now still
// validates when the batch is applied.
func (e *Engine) Validate(node nsim.NodeID, t eval.Tuple) error {
	return e.validateInject(node, t)
}

// Inject generates base tuple t at the given node (scheduled
// immediately). Returns an error — without scheduling anything — if
// the injection fails validation (see validateInject).
func (e *Engine) Inject(node nsim.NodeID, t eval.Tuple) error {
	if err := e.validateInject(node, t); err != nil {
		return err
	}
	e.nw.ScheduleAt(e.nw.Now(), func() {
		e.rts[node].generate(t, nil)
	})
	return nil
}

// InjectAt schedules the generation at an absolute simulation time.
// Validation errors are reported immediately, before scheduling.
func (e *Engine) InjectAt(at nsim.Time, node nsim.NodeID, t eval.Tuple) error {
	if err := e.validateInject(node, t); err != nil {
		return err
	}
	e.nw.ScheduleAt(at, func() {
		e.rts[node].generate(t, nil)
	})
	return nil
}

// InjectDelete deletes a previously injected base tuple: every live
// generation of it, each from the node that generated it (per the paper,
// deletion happens only at the source — a marker launched elsewhere would
// sweep a different storage region). node is validated, not trusted.
func (e *Engine) InjectDelete(node nsim.NodeID, t eval.Tuple) error {
	if err := e.validateInject(node, t); err != nil {
		return err
	}
	if _, ok := e.baseIDs[t.Key()]; !ok {
		return fmt.Errorf("core: deleting unknown base tuple %s", t)
	}
	e.nw.ScheduleAt(e.nw.Now(), func() { e.deleteBase(t) })
	return nil
}

// InjectDeleteAt schedules the deletion at an absolute time; the tuple
// must have been generated by then (a tuple still unknown when the
// deletion fires is skipped, since validation cannot see the future).
func (e *Engine) InjectDeleteAt(at nsim.Time, node nsim.NodeID, t eval.Tuple) error {
	if err := e.validateInject(node, t); err != nil {
		return err
	}
	e.nw.ScheduleAt(at, func() { e.deleteBase(t) })
	return nil
}

// baseGens is the live generations of one base tuple: the latest, and —
// only for a tuple reported again while still live — the earlier ones.
type baseGens struct {
	last  window.Stamp
	older []window.Stamp
}

// deleteBase generates the deletion of every live generation of t.
func (e *Engine) deleteBase(t eval.Tuple) {
	key := t.Key()
	g, ok := e.baseIDs[key]
	if !ok {
		return
	}
	delete(e.baseIDs, key)
	for _, id := range g.older {
		e.rts[id.Node].generate(t, &id)
	}
	e.rts[g.last.Node].generate(t, &g.last)
}

// homeAdded and homeRemoved keep the derived view in step with the nodes'
// homed records; t carries its key.
func (e *Engine) homeAdded(t eval.Tuple) {
	if e.derived.Insert(t) {
		e.derivedVer[t.Pred]++
		return
	}
	if e.extraHomes == nil {
		e.extraHomes = make(map[string]int)
	}
	e.extraHomes[t.Key()]++
}

func (e *Engine) homeRemoved(t eval.Tuple) {
	switch n := e.extraHomes[t.Key()]; {
	case n > 1:
		e.extraHomes[t.Key()] = n - 1
	case n == 1:
		delete(e.extraHomes, t.Key())
	case e.derived.Delete(t):
		e.derivedVer[t.Pred]++
	}
}

// Derived returns the live derived tuples of predKey across the network
// (union of home-node states), in canonical order.
func (e *Engine) Derived(predKey string) []eval.Tuple { return e.derived.Tuples(predKey) }

// DerivedDB is the live derived set of every predicate: the engine's own
// view, not a copy. Read it at quiescence and do not write to it; its
// Match builds hash indexes on first use, so concurrent readers serialise
// their probes.
func (e *Engine) DerivedDB() *eval.Database { return e.derived }

// DerivedVersion is predKey's change counter: it moves whenever the
// predicate's derived set does (and on every replay wipe), and never goes
// back, so an answer read at one value is current while the value holds.
func (e *Engine) DerivedVersion(predKey string) uint64 { return e.derivedVer[predKey] }

// StoredReplicas returns the total replica entries held at node id (the
// E9 memory metric).
func (e *Engine) StoredReplicas(id nsim.NodeID) int { return e.rts[id].store.TotalCount() }

// DerivationEntries returns the derivation records held at node id.
func (e *Engine) DerivationEntries(id nsim.NodeID) int {
	n := 0
	for _, h := range e.rts[id].homed {
		n += len(h.derivs)
	}
	return n
}

// Analysis exposes the program analysis.
func (e *Engine) Analysis() *analysis.Result { return e.res }

// Network exposes the underlying network.
func (e *Engine) Network() *nsim.Network { return e.nw }

// TauS is the storage-phase bound τs the engine derived from its
// network's geometry.
func (e *Engine) TauS() nsim.Time { return e.tauS }

// centroidFor picks the region node a tuple is stored at (hash-spread
// over the centroid region).
func (e *Engine) centroidFor(key string) *nsim.Node {
	h := 0
	for _, c := range key {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return e.nw.Node(e.centroidNodes[h%len(e.centroidNodes)])
}

// newStore returns an empty replica store that knows each windowed
// predicate's retention, so the store can tell when something is due.
func (e *Engine) newStore() *window.Store {
	s := e.arena.NewStore()
	for _, pred := range e.windowPreds {
		s.SetRetention(pred, e.retention(pred))
	}
	return s
}

// retention computes the replica lifetime of Section IV-B:
// (τs+τc) + τj + (τw+τc); unbounded windows never expire.
func (e *Engine) retention(predKey string) int64 {
	w := e.windows[predKey]
	if w == 0 {
		return 0
	}
	return int64(e.tauS+2*e.tauC+e.tauJ) + w
}

// candSettle bounds how long after an update's timestamp its candidates
// can still be in flight: join-phase start (τs+τc) + sweep (τj) + result
// routing (τj) + clock skew. Applying every candidate at
// updateTS + candSettle therefore applies candidates in update-timestamp
// order — the distributed analogue of Theorem 3's "process updates in
// the order of their local timestamps".
func (e *Engine) candSettle() nsim.Time {
	return e.tauS + 2*e.tauJ + 2*e.tauC
}

// finalizeDeadline computes the local time at which a candidate with the
// given update stamp and head predicate must be applied; same-stage XY
// predicates are staggered by their evaluation-order priority.
func (e *Engine) finalizeDeadline(updateTS int64, predKey string) nsim.Time {
	return nsim.Time(updateTS) + e.candSettle() +
		e.finalizeGap*nsim.Time(1+e.finalizePrio[predKey])
}

// sizeOfTuple estimates the wire size of a tuple in bytes.
func sizeOfTuple(t eval.Tuple) int {
	n := 4 // predicate tag
	for _, a := range t.Args {
		n += sizeOfTerm(a)
	}
	return n
}

func sizeOfTerm(t ast.Term) int {
	switch t.Kind {
	case ast.KindInt, ast.KindFloat:
		return 4
	case ast.KindString, ast.KindSymbol:
		return 2 + len(t.Str)
	case ast.KindVar:
		return 2
	case ast.KindCompound:
		n := 2
		for _, a := range t.Args {
			n += sizeOfTerm(a)
		}
		return n
	}
	return 2
}

// String summarizes the compiled program.
func (e *Engine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %d rules, scheme=%s\n", len(e.rules), e.cfg.Scheme)
	for _, cr := range e.rules {
		mode := "hash"
		if cr.mode == localMode {
			mode = "local"
		}
		fmt.Fprintf(&b, "  rule %d [%s]: %s\n", cr.rule.ID, mode, cr.rule)
	}
	return b.String()
}
