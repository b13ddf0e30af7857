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
	"slices"
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
}

// deriveBounds sets the engine's timing bounds from the network: its hop
// diameter, τs and τj from its geometry at the slowest per-hop delay, τc
// from its clock skew, and a finalize gap that separates same-stage
// predicates by a storage phase plus four hops.
func (e *Engine) deriveBounds() {
	minX, minY, maxX, maxY := routing.Bounds(e.nw)
	e.diamHops = nsim.Time((maxX-minX)+(maxY-minY)) + 4
	e.tauS = 2 * e.diamHops * nsim.MaxDelay
	e.tauC = e.nw.Config().MaxSkew
	e.tauJ = 2 * e.diamHops * nsim.MaxDelay
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
	head         *pred
	// headPat is the head as a pattern over a settled tuple: arguments the
	// registry evaluates (D + 1) cannot be matched back, so they are
	// wildcards. liveNegMatch rebinds the negated variables through it.
	headPat []ast.Term
}

// compiledLit is what a probe or a built-in evaluation needs of body
// literal i, worked out once.
type compiledLit struct {
	pred *pred      // nil for a built-in
	ord  int        // ordinal among the positive subgoals: the partial's stamp index
	vars uint64     // slots a relational literal's arguments mention
	op   builtin.Op // the built-in, compiled
}

// pred is everything the engine compiled about one predicate: New builds
// one for each key KnownPredKeys lists, and compiled rules and literals
// point at theirs, so a handler holding a rule looks nothing up.
type pred struct {
	key string
	// derived: the head of a rule with a body (ast.Program.IsDerived).
	// base: declared .base or never derived (IsBase); its generations are
	// the ones InjectDeleteAt names and replay re-executes.
	derived, base bool
	// ruled: a rule's head or body names it; only these have the
	// core.derivations.<p> and core.deletions.<p> counters.
	ruled bool
	// read: some rule body reads it, so it has a storage region (launch).
	// A generation of any other predicate is stored nowhere and starts no
	// join phase.
	read bool
	win  int64 // window range (0 = unbounded)
	// placed: a .store declaration places it at the node place names.
	placed bool
	place  ast.Placement
	prio   int  // finalize priority among same-stage XY predicates
	logged bool // home-record changes go to ResultLog (.query or Watch)
	// triggers are the body positions an update of it pins.
	triggers []trigger
	// derive and del count its derivations and deletions (Observe; nil
	// counters are no-ops).
	derive, del *obs.Counter
	// agg is the aggregate rule it heads, run by TAG collection epochs
	// (aggregate.go), and aggResult that rule's last epoch's tuples.
	agg       *compiledRule
	aggResult []eval.Tuple
}

// newPreds returns a record for each predicate prog mentions, holding what
// the program text says of it: derived or base, window range
// (defaultWindow where none is declared) and placement.
func newPreds(prog *ast.Program, defaultWindow int64) map[string]*pred {
	known := KnownPredKeys(prog)
	preds := make(map[string]*pred, len(known))
	for k := range known {
		p := &pred{key: k, derived: prog.IsDerived(k), win: defaultWindow}
		p.base = prog.Base[k] || !p.derived
		if w, ok := prog.Windows[k]; ok {
			p.win = w
		}
		p.place, p.placed = prog.Placements[k]
		preds[k] = p
	}
	return preds
}

// classify is the one predicate check behind every front door: injection
// (Validate), goals (ParseGoal), subscriptions (ClassifyPred) and
// provenance queries (Explain, Blame). It returns key's record; a key the
// program does not mention fails with ErrArity when the program names the
// predicate at another arity, and with ErrUnknownPredicate otherwise.
func classify(preds map[string]*pred, key string) (*pred, error) {
	if p := preds[key]; p != nil {
		return p, nil
	}
	// The messages hold a copy, so that a key the caller built on its
	// stack (a goal's) stays there on the way to a record.
	got, name := strings.Clone(key), key[:strings.LastIndexByte(key, '/')+1]
	for k := range preds {
		if len(k) > len(name) && k[:len(name)] == name {
			return nil, validationErrorf(ErrArity, "arity mismatch (program declares %s, got %s)", k, got)
		}
	}
	return nil, validationErrorf(ErrUnknownPredicate, "predicate %s not mentioned by the program", got)
}

// ClassifyPred reports whether the program derives predicate key ("name/
// arity"): the classification every front door makes, failing with
// ErrArity or ErrUnknownPredicate for a key the program does not mention.
func (e *Engine) ClassifyPred(key string) (derived bool, err error) {
	p, err := classify(e.preds, key)
	return err == nil && p.derived, err
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
	// diamHops bounds a greedy path's hop count: the grid diameter plus
	// slack. The timing bounds and the TAG collection schedule use it.
	diamHops nsim.Time
	// router caches nearest-node lookups for the geographic-unicast
	// termination test, which every walker hop performs.
	router *routing.Engine

	// rules are the compiled rules the join machinery runs; aggregate
	// rules are compiled too, but their plans hang off their heads' records.
	rules []*compiledRule
	// preds holds one record per predicate the program mentions, by key.
	preds map[string]*pred
	// windowed lists the records stored with a positive window range,
	// sorted by key: the retentions every node's store is told (newStore).
	windowed  []*pred
	hasher    *ghash.Hasher
	planner   *gpa.Planner
	nodeTerms map[string]nsim.NodeID // term key -> node

	rts []*nodeRT // per-node runtimes, indexed by NodeID
	// arena backs the entries of every node's replica store (newStore).
	arena *window.Arena
	// maxVars is the widest rule's register count.
	maxVars int
	scratch joinScratch

	// baseIDs registers the live generations of every injected base tuple
	// for later deletion, by tuple key.
	baseIDs map[string]baseGens

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

	// aggEpoch numbers TAG collection epochs.
	aggEpoch int64

	// ResultLog records each home record of a logged predicate (.query
	// or watched) appearing or going, in order: a tuple a fault homed at
	// two nodes has two inserts. A holder may drop it at any time;
	// resultsLogged keeps the lifetime count (core.results_logged).
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

// ResultEvent is one home record of a logged predicate appearing
// (Insert) or going.
type ResultEvent struct {
	Tuple  eval.Tuple
	Insert bool
	At     nsim.Time   // global time of the change
	Node   nsim.NodeID // the home node whose record changed
}

// View is the derived set a ResultLog describes, fed from the first run
// on: it counts each tuple's homes, and a tuple is a member while its
// count is above zero. The engine keeps none; a serving session does.
type View struct {
	*eval.Database                // the tuples with a home; write it only through Apply
	extra          map[string]int // homes beyond the first, of tuples with two or more
}

// NewView returns an empty view.
func NewView() *View { return &View{Database: eval.NewDatabase(), extra: make(map[string]int)} }

// Net folds log into the home counts and returns the changes to the
// set, removals first and then by key, each as the tuple's last event;
// Apply makes them. Net only reads the database, so its readers may run
// beside it, but not Apply or another Net.
func (v *View) Net(log []ResultEvent) []ResultEvent {
	log = slices.Clone(log)
	slices.SortStableFunc(log, func(a, b ResultEvent) int { return strings.Compare(a.Tuple.Key(), b.Tuple.Key()) })
	changes := log[:0] // a tuple's change is written over its own events
	for i := 0; i < len(log); {
		k, in, homes := log[i].Tuple.Key(), v.Contains(log[i].Tuple), 0
		if in {
			homes = 1 + v.extra[k]
		}
		for ; i < len(log) && log[i].Tuple.Key() == k; i++ {
			if log[i].Insert {
				homes++
			} else {
				homes--
			}
		}
		if delete(v.extra, k); homes > 1 {
			v.extra[k] = homes - 1
		}
		if last := log[i-1]; (homes > 0) != in {
			last.Insert = homes > 0
			changes = append(changes, last)
		}
	}
	slices.SortStableFunc(changes, func(a, b ResultEvent) int {
		if a.Insert == b.Insert {
			return 0
		} else if a.Insert {
			return 1
		}
		return -1
	})
	return changes
}

// Apply makes the changes Net returned.
func (v *View) Apply(changes []ResultEvent) {
	for _, ev := range changes {
		if ev.Insert {
			v.Insert(ev.Tuple)
		} else {
			v.Delete(ev.Tuple)
		}
	}
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
	if s := cfg.Server; s < 0 || int(s) >= nw.Len() {
		return nil, validationErrorf(ErrBadNode, "core: server %d out of range [0, %d)", s, nw.Len())
	}
	res, err := analysis.Analyze(prog)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		nw:        nw,
		prog:      prog,
		res:       res,
		cfg:       cfg,
		router:    routing.NewEngine(nw),
		preds:     newPreds(prog, cfg.DefaultWindow),
		hasher:    ghash.ForNetwork(nw),
		planner:   gpa.NewPlanner(nw, gpa.Planner{Scheme: cfg.Scheme, Server: cfg.Server, SpatialRadius: cfg.SpatialRadius, BandWidth: cfg.BandWidth}),
		nodeTerms: make(map[string]nsim.NodeID),
		baseIDs:   make(map[string]baseGens),
		arena:     window.NewArena(),
	}
	e.deriveBounds()
	for _, n := range nw.Nodes() {
		e.nodeTerms[ast.Symbol(fmt.Sprintf("n%d", n.ID)).Key()] = n.ID
	}
	for _, w := range res.XY {
		for i, p := range w.SameStageOrder {
			e.preds[p].prio = i
		}
	}
	for _, q := range prog.Queries {
		e.preds[q].logged = true
	}
	if err := e.compileRules(); err != nil {
		return nil, err
	}
	e.scratch = newJoinScratch(e.maxVars)
	// Only a predicate some rule reads is ever stored, so only those have
	// a retention for the stores to know. Their storage and join plans
	// serve the hash-placed predicates rules read; without one, no node
	// needs them.
	hashRead := false
	for _, p := range e.preds {
		if p.read && p.win > 0 {
			e.windowed = append(e.windowed, p)
		}
		hashRead = hashRead || p.read && !p.placed
	}
	slices.SortFunc(e.windowed, func(a, b *pred) int { return strings.Compare(a.key, b.key) })

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

// compileRules compiles every rule with a body to variable slots. An
// ordinary rule is classified and indexed as a trigger of each predicate
// its body names; an aggregate rule becomes its head's TAG plan.
func (e *Engine) compileRules() error {
	for _, r := range e.prog.Rules {
		head := e.preds[r.Head.PredKey()]
		head.ruled = true
		if len(r.Body) == 0 {
			continue // facts are injected at start
		}
		nr, nvars := r.NumberVars()
		cr := &compiledRule{rule: nr, nvars: nvars, lits: make([]compiledLit, len(r.Body)), head: head}
		r = nr
		local := cr.head.placed // local if the head and every relational subgoal are placed
		for i, l := range r.Body {
			cl := &cr.lits[i]
			if l.Builtin {
				cl.op, cr.opMask = builtin.Compile(l), cr.opMask|1<<uint(i)
				continue
			}
			cl.pred, cl.vars = e.preds[l.PredKey()], unify.SlotMask(l.Args...)
			cl.pred.read, cl.pred.ruled = true, true
			local = local && cl.pred.placed
			if l.Negated {
				cr.negIdx = append(cr.negIdx, i)
			} else {
				cl.ord = len(cr.posIdx)
				cr.posIdx = append(cr.posIdx, i)
				cr.posMask |= 1 << uint(i)
			}
		}
		if nvars > e.maxVars {
			e.maxVars = nvars
		}
		if r.HasAggregates() {
			// TAG collection folds one stream's owned tuples: exactly one
			// positive relational subgoal, no negation, built-ins allowed.
			switch {
			case len(cr.negIdx) > 0:
				return fmt.Errorf("core: aggregate rule %d: negation is not supported in TAG collection", r.ID)
			case len(cr.posIdx) == 0:
				return fmt.Errorf("core: aggregate rule %d has no relational subgoal", r.ID)
			case len(cr.posIdx) > 1:
				return fmt.Errorf("core: aggregate rule %d: TAG collection aggregates over a single stream; found a second subgoal %s", r.ID, r.Body[cr.posIdx[1]])
			}
			cr.head.agg = cr
			continue
		}
		for _, a := range r.Head.Args {
			cr.headPat = append(cr.headPat, e.matchablePattern(a))
		}
		if local {
			cr.mode = localMode
		} else {
			// Mixed placements are not supported: a placed predicate has
			// no GPA storage region, so a hash-mode sweep would miss it.
			for _, cl := range cr.lits {
				if p := cl.pred; p != nil && p.placed {
					return fmt.Errorf("core: rule %d mixes placed predicate %s with hash-placed ones; declare placements for all of the rule's predicates or none", r.ID, p.key)
				}
			}
			if cr.head.placed {
				return fmt.Errorf("core: rule %d has a placed head %s but hash-placed body", r.ID, cr.head.key)
			}
			cr.mode = hashMode
		}
		// Same-stage negation flags. Negations checked at finalize time
		// (local-mode rules and same-stage XY negations) rebind their
		// variables by matching the settled head tuple against headPat, so
		// every one must occur in the head where matching can reach it.
		matchable := unify.SlotMask(cr.headPat...)
		for _, ni := range cr.negIdx {
			same := e.sameXYComponent(cr.head.key, cr.lits[ni].pred.key)
			cr.negSameStage = append(cr.negSameStage, same)
			if (same || cr.mode == localMode) && cr.lits[ni].vars&^matchable != 0 {
				return validationErrorf(ErrNegationNeedsHead, "core: rule %d: %s is checked at the head's home node by matching the settled head tuple, so each of its variables must appear in the head outside any evaluated expression; bind the expression in the body (D1 = D + 1) and use that variable in the head and in the negated subgoal",
					r.ID, r.Body[ni])
			}
		}
		e.rules = append(e.rules, cr)
		for i, l := range r.Body {
			if !l.Builtin {
				p := cr.lits[i].pred
				p.triggers = append(p.triggers, trigger{rule: cr, bodyIdx: i, negated: l.Negated})
			}
		}
	}
	// A join region that floods joins at each node it reaches, and partial
	// results cannot be accumulated coherently across a flood, so it only
	// supports two-stream positive rules. Every node's join plan has the
	// same shape.
	if e.planner.Join(e.nw.Node(0)).Flood {
		for _, cr := range e.rules {
			if cr.mode == hashMode && (len(cr.posIdx) > 2 || len(cr.negIdx) > 0) {
				return fmt.Errorf("core: rule %d: a join region that floods (local-storage, centroid, band-PA) supports only two-stream positive joins", cr.rule.ID)
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
		p := e.preds[t.Pred]
		nodeID := e.homeFor(p, t)
		if p.derived {
			e.nw.ScheduleAt(e.nw.Now(), func() {
				e.seedDerivedFact(p, f.ID, t, nodeID)
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
func (e *Engine) seedDerivedFact(p *pred, ruleID int, t eval.Tuple, nodeID nsim.NodeID) {
	rt := e.rts[nodeID]
	t = t.Keyed()
	key := t.Key()
	h := rt.homed[key]
	if h == nil {
		h = &homed{derivs: make(map[string]*provenance.Derivation)}
		rt.homed[key] = h
		e.homeChanged(p, t, true, nodeID)
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
	h.t, h.id = t, rt.generate(p, t, nil)
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

// homeFor returns the node where tuple t of predicate p should
// originate: its placement node if declared, else its geographic-hash
// home.
func (e *Engine) homeFor(p *pred, t eval.Tuple) nsim.NodeID {
	if p.placed {
		if id, ok := e.nodeTerms[t.Args[p.place.Arg].Key()]; ok {
			return id
		}
	}
	return e.hasher.Home(e.nw, t.Key()).ID
}

// Validate checks an injection without scheduling anything; Inject,
// InjectAt and InjectDeleteAt run it first. It rejects an
// out-of-range node, a non-ground tuple, a derived predicate (derived
// tuples come from rules, never injection), and a predicate the program
// does not mention or declares at another arity, each failure wrapping
// its sentinel (ErrBadNode, ErrNotGround, ErrDerivedPredicate,
// ErrUnknownPredicate, ErrArity) for errors.Is dispatch. The serving
// layer's write batching validates at enqueue time so a deferred apply
// can never fail; the checks depend only on the immutable program and
// topology, so a tuple that validates now still validates when the batch
// is applied.
func (e *Engine) Validate(node nsim.NodeID, t eval.Tuple) error {
	if int(node) < 0 || int(node) >= e.nw.Len() {
		return validationErrorf(ErrBadNode, "core: inject %s: node %d out of range [0, %d)", t, node, e.nw.Len())
	}
	for _, a := range t.Args {
		if !a.Ground() {
			return validationErrorf(ErrNotGround, "core: inject %s: argument %s is not ground", t, a)
		}
	}
	p, err := classify(e.preds, t.Pred)
	if err != nil {
		return fmt.Errorf("core: inject %s: %w", t, err)
	}
	if p.derived {
		return validationErrorf(ErrDerivedPredicate, "core: inject %s: %s is a derived predicate (derived tuples come from rules, not injection)", t, t.Pred)
	}
	return nil
}

// Inject generates base tuple t at the given node (scheduled
// immediately). Returns an error — without scheduling anything — if
// the injection fails validation (see Validate).
func (e *Engine) Inject(node nsim.NodeID, t eval.Tuple) error {
	return e.InjectAt(e.nw.Now(), node, t)
}

// InjectAt schedules the generation at an absolute simulation time.
// Validation errors are reported immediately, before scheduling.
func (e *Engine) InjectAt(at nsim.Time, node nsim.NodeID, t eval.Tuple) error {
	if err := e.Validate(node, t); err != nil {
		return err
	}
	p := e.preds[t.Pred]
	e.nw.ScheduleAt(at, func() {
		e.rts[node].generate(p, t, nil)
	})
	return nil
}

// InjectDeleteAt schedules the deletion of a previously injected base
// tuple at an absolute time: every live generation of it, each from the
// node that generated it (per the paper, deletion happens only at the
// source — a marker launched elsewhere would sweep a different storage
// region). node is validated, not trusted. The tuple must have been
// generated by then (a tuple still unknown when the deletion fires is
// skipped, since validation cannot see the future).
func (e *Engine) InjectDeleteAt(at nsim.Time, node nsim.NodeID, t eval.Tuple) error {
	if err := e.Validate(node, t); err != nil {
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
	p := e.preds[t.Pred]
	for _, id := range g.older {
		e.rts[id.Node].generate(p, t, &id)
	}
	e.rts[g.last.Node].generate(p, t, &g.last)
}

// homeChanged records that node's home record of t, of predicate p,
// appeared (insert) or went: if p is logged, it appends the change to
// ResultLog. t carries its key.
func (e *Engine) homeChanged(p *pred, t eval.Tuple, insert bool, node nsim.NodeID) {
	if p.logged {
		e.ResultLog = append(e.ResultLog, ResultEvent{Tuple: t, Insert: insert, At: e.nw.Now(), Node: node})
		e.resultsLogged++
	}
}

// Watch logs pred's home-record changes to ResultLog from now on, as a
// .query declaration does. A predicate the program does not mention
// never changes, so watching one logs nothing.
func (e *Engine) Watch(pred string) {
	if p := e.preds[pred]; p != nil {
		p.logged = true
	}
}

// Derived returns the live derived tuples of predKey in canonical
// order: the distinct tuples of every node's homed records (a fault can
// home one tuple at two nodes). It walks every node, so its cost grows
// with the network, not the answer.
func (e *Engine) Derived(predKey string) []eval.Tuple {
	var out []eval.Tuple
	for _, rt := range e.rts {
		for _, h := range rt.homed {
			if h.t.Pred == predKey {
				out = append(out, h.t)
			}
		}
	}
	slices.SortFunc(out, func(a, b eval.Tuple) int { return strings.Compare(a.Key(), b.Key()) })
	return slices.CompactFunc(out, func(a, b eval.Tuple) bool { return a.Key() == b.Key() })
}

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

// newStore returns an empty replica store that knows each windowed
// predicate's retention, so the store can tell when something is due.
func (e *Engine) newStore() *window.Store {
	s := e.arena.NewStore()
	for _, p := range e.windowed {
		s.SetRetention(p.key, e.retention(p.win))
	}
	return s
}

// retention computes the replica lifetime of Section IV-B:
// (τs+τc) + τj + (τw+τc) for window range w; unbounded windows never
// expire.
func (e *Engine) retention(w int64) int64 {
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
func (e *Engine) finalizeDeadline(updateTS int64, head *pred) nsim.Time {
	return nsim.Time(updateTS) + e.candSettle() +
		e.finalizeGap*nsim.Time(1+head.prio)
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
