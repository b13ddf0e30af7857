package eval

import (
	"errors"
	"fmt"

	"repro/internal/agg"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/builtin"
	"repro/internal/datalog/unify"
)

// applyRule computes the head tuples derivable by r. When deltaIdx >= 0,
// the positive subgoal at that body index ranges over delta (semi-naive
// restriction) and all others over db. Emission goes through emit.
func (e *Evaluator) applyRule(db *Database, r *ast.Rule, delta map[string]*TupleSet, deltaIdx int, emit func(Tuple) error) error {
	// Stream: heads are instantiated per solution without materializing
	// the []Solution (or each solution's Used slice). Head args and the
	// identity key are built in scratch buffers so duplicate derivations —
	// the bulk of emissions near a fixpoint — allocate nothing: the tuple
	// (args copy + key string) is only materialized when the head is not
	// already in db.
	ks := e.keysOf(r)
	// No Subst escapes this sink, so bindings come from a bump arena
	// reset per rule application.
	if e.arena == nil {
		e.arena = &unify.Arena{}
	}
	e.arena.Reset()
	return e.streamBodyIn(e.arena, db, r, delta, deltaIdx, false, nil, func(s unify.Subst, _ []posTuple) error {
		args := e.argScratch[:0]
		for _, a := range r.Head.Args {
			// Fast path: a variable bound to a scalar needs no builtin
			// reduction, and scalars are trivially ground with depth 1.
			if a.Kind == ast.KindVar {
				if b, ok := s.Lookup(a.Str); ok && b.Kind != ast.KindVar && b.Kind != ast.KindCompound {
					args = append(args, b)
					continue
				}
			}
			v, err := builtin.Standard.EvalTerm(a, s)
			if err != nil {
				return fmt.Errorf("eval: rule %d head: %w", r.ID, err)
			}
			if !v.Ground() {
				return fmt.Errorf("eval: rule %d produced non-ground head argument %s", r.ID, v)
			}
			if v.Depth() > maxTermDepth {
				return fmt.Errorf("eval: derived term exceeds depth bound %d: %s",
					maxTermDepth, Tuple{Pred: ks.head, Args: args})
			}
			args = append(args, v)
		}
		e.argScratch = args
		kb := e.keyScratch[:0]
		kb = append(kb, ks.head...)
		kb = append(kb, '|')
		for i, a := range args {
			if i > 0 {
				kb = append(kb, ',')
			}
			kb = a.AppendKey(kb)
		}
		e.keyScratch = kb
		// Probe the table inline so the lookup reuses kb without
		// materializing a string for already-known heads.
		if tab := db.tables[ks.head]; tab != nil {
			if _, ok := tab.pos[string(kb)]; ok {
				return nil
			}
		}
		t := Tuple{Pred: ks.head, Args: e.chunkTerms(args), key: e.internKey(kb)}
		return emit(t)
	})
}

// instantiateHead grounds the head of r under s, reducing arithmetic.
func (e *Evaluator) instantiateHead(r *ast.Rule, s unify.Subst) (Tuple, error) {
	args := make([]ast.Term, len(r.Head.Args))
	for i, a := range r.Head.Args {
		v, err := builtin.Standard.EvalTerm(a, s)
		if err != nil {
			return Tuple{}, fmt.Errorf("eval: rule %d head: %w", r.ID, err)
		}
		if !v.Ground() {
			return Tuple{}, fmt.Errorf("eval: rule %d produced non-ground head argument %s", r.ID, v)
		}
		args[i] = v
	}
	return Tuple{Pred: e.keysOf(r).head, Args: args}.Keyed(), nil
}

// seed starts a body solve part-way through, which is how incremental
// maintenance evaluates a rule for one changed tuple (Section IV-A,
// Definitions 1–2: the semi-naive join with a singleton delta). Subgoal
// skip counts as already satisfied under subst. When pinned, skip is a
// positive subgoal that matched pin: pin is recorded as the tuple used at
// that position, and the other occurrences of its predicate read the
// tables the exact-delta rule in step prescribes.
type seed struct {
	skip   int         // satisfied body index (-1: none)
	subst  unify.Subst // the bindings it contributed
	pinned bool
	pin    Tuple
	insert bool // the change inserted pin (false: deleted it)
}

// streamBodyIn enumerates the solutions of r's body against db, invoking
// sink per solution with the substitution and the positive body tuples
// used (scratch, in expansion order — copy what must be retained). When
// deltaIdx >= 0, the positive subgoal at that body index ranges over
// delta[pred] instead of db (semi-naive restriction). Built-ins are
// evaluated as soon as their arguments are bound; negated subgoals are
// checked once ground.
//
// Positive subgoals are expanded in selectivity order (most ground
// argument positions first, ties broken by smaller table, then static
// SIP rank) unless bodyOrder is set, and each expansion probes the
// table's argument-position index instead of scanning. Index buckets
// preserve insertion order, so the set of solutions — and the tuples used
// by each — is the one a body-order scan would find.
//
// Bindings are drawn from arena (nil = heap); an arena is only safe with a
// sink that does not retain its Subst past the call.
func (e *Evaluator) streamBodyIn(arena *unify.Arena, db *Database, r *ast.Rule, delta map[string]*TupleSet, deltaIdx int, bodyOrder bool, sd *seed, sink func(unify.Subst, []posTuple) error) error {
	ks := e.keysOf(r)
	// Reuse one solveState (and its scratch buffers) per evaluator; a
	// fresh one is made only if a sink ever re-enters the solver.
	st := e.solver
	if st == nil || st.busy {
		st = &solveState{}
		e.solver = st
	}
	st.ev, st.db, st.r, st.keys, st.arena = e, db, r, ks, arena
	st.delta, st.deltaIdx, st.bodyOrder, st.rank, st.sink = nil, deltaIdx, bodyOrder, nil, sink
	if deltaIdx >= 0 {
		st.delta = delta[ks.body[deltaIdx]]
	}
	if !bodyOrder {
		st.rank = e.res.SIPRank(r.ID)
	}
	// used is a DFS path of at most len(r.Body) entries; pre-sizing the
	// reusable buffer means the appends along every branch never
	// reallocate.
	if cap(e.usedBuf) < len(r.Body) {
		e.usedBuf = make([]posTuple, 0, len(r.Body))
	}
	done, n, s, used := uint64(0), 0, unify.Subst{}, e.usedBuf[:0]
	st.pinIdx = -1
	if sd != nil {
		s = sd.subst
		if sd.skip >= 0 {
			done, n = 1<<uint(sd.skip), 1
		}
		if sd.pinned {
			st.pinIdx, st.pin, st.insert = sd.skip, sd.pin.Keyed(), sd.insert
			used = append(used, posTuple{pos: sd.skip, t: st.pin})
		}
	}
	st.busy = true
	err := st.step(done, n, s, nil, used)
	st.busy, st.sink = false, nil
	return err
}

// posTuple is a tuple used by a solution, with the body position of the
// subgoal it satisfied.
type posTuple struct {
	pos int
	t   Tuple
}

type solveState struct {
	ev       *Evaluator
	db       *Database
	r        *ast.Rule
	keys     *ruleKeys    // cached head/body predicate keys
	arena    *unify.Arena // binding arena (nil = heap)
	delta    *TupleSet    // table for the deltaIdx subgoal
	deltaIdx int
	// bodyOrder forces body-position subgoal order (aggregate rules,
	// where the fold order of each group's value multiset must not
	// depend on the ordering heuristic).
	bodyOrder bool
	rank      []int // static SIP ranks (nil in bodyOrder mode)
	sink      func(unify.Subst, []posTuple) error
	busy      bool // guards the evaluator's cached state against re-entry
	// The seed's pinned positive subgoal (pinIdx < 0: none); see step.
	pinIdx int
	pin    Tuple
	insert bool

	// AppendBoundCols scratch, reused across steps (NewIndex copies cols
	// when tab.index materializes a new index). The buffers start out
	// backed by the fixed arrays below and spill to the heap only for
	// unusually wide literals or long keys.
	colbuf []int
	keybuf []byte
	tmpbuf []byte
	colArr [8]int
	keyArr [64]byte
	tmpArr [48]byte
}

// step processes the next body literal under substitution s. done is the
// bitmask of body indices already expanded, n its population count.
func (st *solveState) step(done uint64, n int, s unify.Subst, deferred []ast.Literal, used []posTuple) error {
	// Try to discharge any deferred literals that became ground.
	var stillDeferred []ast.Literal
	for _, d := range deferred {
		ok, ns, err := st.tryLiteral(d, s)
		switch {
		case errors.Is(err, builtin.ErrNotGround) || errors.Is(err, errNotReady):
			stillDeferred = append(stillDeferred, d)
		case err != nil:
			return err
		case !ok:
			return nil // dead branch
		default:
			s = ns
		}
	}
	deferred = stillDeferred

	if n == len(st.r.Body) {
		return st.finish(s, deferred, used)
	}

	i := st.next(done, s)
	bit := uint64(1) << uint(i)
	l := st.r.Body[i]
	if l.Builtin {
		ok, ns, err := builtin.Standard.Eval(l, s)
		switch {
		case errors.Is(err, builtin.ErrNotGround):
			return st.step(done|bit, n+1, s, append(deferred, l), used)
		case err != nil:
			return err
		case !ok:
			return nil
		default:
			return st.step(done|bit, n+1, ns, deferred, used)
		}
	}
	if l.Negated {
		ok, ns, err := st.tryLiteral(l, s)
		switch {
		case errors.Is(err, errNotReady):
			return st.step(done|bit, n+1, s, append(deferred, l), used)
		case err != nil:
			return err
		case !ok:
			return nil
		default:
			return st.step(done|bit, n+1, ns, deferred, used)
		}
	}

	// Positive relational subgoal: branch over matching tuples.
	if i == st.deltaIdx {
		for _, t := range st.delta.Items() {
			if err := st.match(i, t, done, n, s, deferred, used); err != nil {
				return err
			}
		}
		return nil
	}
	// Exact-delta rule of a seeded solve (Counting needs it, the other
	// modes tolerate it): the database already holds the change, and
	// another occurrence of the pinned tuple's predicate ranges over the
	// pre-change table when it precedes the pin in the body and over the
	// post-change table when it follows. So on insertion an earlier
	// occurrence passes over the pin, and on deletion a later one still
	// examines it — last, after the surviving tuples, unless something
	// re-inserted it meanwhile and the table walk already met it.
	var without string
	withPin := false
	if st.pinIdx >= 0 && st.keys.body[i] == st.pin.Pred {
		if st.insert && i < st.pinIdx {
			without = st.pin.key
		}
		withPin = !st.insert && i > st.pinIdx
	}
	tab := st.db.tables[st.keys.body[i]]
	if tab != nil {
		if st.colbuf == nil {
			st.colbuf, st.keybuf, st.tmpbuf = st.colArr[:0], st.keyArr[:0], st.tmpArr[:0]
		}
		st.colbuf, st.keybuf, st.tmpbuf = AppendBoundCols(st.colbuf, st.keybuf, st.tmpbuf, l.Args, s)
		if len(st.colbuf) > 0 {
			it := tab.index(st.colbuf).Probe(st.keybuf)
			for si, ok := it.Next(); ok; si, ok = it.Next() {
				if sl := tab.slots[si]; !sl.dead && sl.t.key != without {
					if err := st.match(i, sl.t, done, n, s, deferred, used); err != nil {
						return err
					}
				}
			}
		} else {
			for _, sl := range tab.slots {
				if !sl.dead && sl.t.key != without {
					if err := st.match(i, sl.t, done, n, s, deferred, used); err != nil {
						return err
					}
				}
			}
		}
	}
	if withPin && !st.db.Contains(st.pin) {
		return st.match(i, st.pin, done, n, s, deferred, used)
	}
	return nil
}

// match tries t at positive subgoal i and, where it unifies, solves the
// rest of the body under the extended substitution.
func (st *solveState) match(i int, t Tuple, done uint64, n int, s unify.Subst, deferred []ast.Literal, used []posTuple) error {
	st.ev.ScanOps++
	ns, ok := unify.MatchArgsIn(st.arena, st.r.Body[i].Args, t.Args, s)
	if !ok {
		return nil
	}
	st.ev.JoinOps++
	return st.step(done|1<<uint(i), n+1, ns, deferred, append(used, posTuple{pos: i, t: t}))
}

// next picks the body index to expand. Body-order mode takes the lowest
// unexpanded index, whatever its kind. Otherwise
// built-ins and negations run as soon as reached (they defer themselves
// if not ground) and positive subgoals are ranked by selectivity.
func (st *solveState) next(done uint64, s unify.Subst) int {
	if st.bodyOrder {
		for i := range st.r.Body {
			if done&(1<<uint(i)) == 0 {
				return i
			}
		}
		return -1
	}
	best, bestBound, bestSize, bestRank := -1, -1, 0, 0
	for i, l := range st.r.Body {
		if done&(1<<uint(i)) != 0 {
			continue
		}
		if l.Builtin || l.Negated {
			return i
		}
		bound := 0
		for _, a := range l.Args {
			if s.Apply(a).Ground() {
				bound++
			}
		}
		size := st.tableSize(i)
		rk := 0
		if st.rank != nil {
			rk = st.rank[i]
		}
		if best < 0 || bound > bestBound ||
			(bound == bestBound && (size < bestSize ||
				(size == bestSize && rk < bestRank))) {
			best, bestBound, bestSize, bestRank = i, bound, size, rk
		}
	}
	return best
}

func (st *solveState) tableSize(i int) int {
	if i == st.deltaIdx {
		return st.delta.Len()
	}
	if tab := st.db.tables[st.keys.body[i]]; tab != nil {
		return tab.live()
	}
	return 0
}

// AppendBoundCols collects the argument positions of args that are ground
// under the bindings b (ascending) and their joint index key into
// caller-owned scratch: cols, key and tmp are truncated and regrown in
// place, and returned so the caller can keep the (possibly reallocated)
// backing. It is generic over the binding representation — the solver's
// unify.Subst, the node runtime's unify.Slots — so there is one key
// builder. The node runtime probes its window stores once per subgoal
// expansion, so this path must not allocate; the returned cols and key
// bytes are valid until the buffers are next passed in.
func AppendBoundCols[B unify.Bindings](cols []int, key, tmp []byte, args []ast.Term, b B) ([]int, []byte, []byte) {
	cols, key = cols[:0], key[:0]
	for j, a := range args {
		v := b.Apply(a)
		if v.Ground() {
			cols = append(cols, j)
			key, tmp = appendArgKey(key, tmp, v)
		}
	}
	return cols, key, tmp
}

var errNotReady = errors.New("eval: literal not ready")

// tryLiteral evaluates a builtin or negated literal if its arguments are
// sufficiently bound; errNotReady defers it.
func (st *solveState) tryLiteral(l ast.Literal, s unify.Subst) (bool, unify.Subst, error) {
	if l.Builtin {
		ok, ns, err := builtin.Standard.Eval(l, s)
		if errors.Is(err, builtin.ErrNotGround) {
			return false, s, errNotReady
		}
		return ok, ns, err
	}
	// Negated relational literal: requires ground arguments.
	args := make([]ast.Term, len(l.Args))
	for i, a := range l.Args {
		v, err := builtin.Standard.EvalTerm(a, s)
		if err != nil {
			return false, s, err
		}
		if !v.Ground() {
			return false, s, errNotReady
		}
		args[i] = v
	}
	st.ev.JoinOps++
	present := st.db.Contains(Tuple{Pred: l.PredKey(), Args: args})
	return !present, s, nil
}

// finish resolves remaining deferred literals (forcing = / is by
// unification as a last resort) and hands the solution to the sink, its
// used tuples still in expansion order (derivKey puts them in body order).
func (st *solveState) finish(s unify.Subst, deferred []ast.Literal, used []posTuple) error {
	for progress := true; progress && len(deferred) > 0; {
		progress = false
		var rest []ast.Literal
		for _, d := range deferred {
			ok, ns, err := st.tryLiteral(d, s)
			switch {
			case errors.Is(err, errNotReady):
				rest = append(rest, d)
			case err != nil:
				return err
			case !ok:
				return nil
			default:
				s = ns
				progress = true
			}
		}
		deferred = rest
	}
	if len(deferred) > 0 {
		return fmt.Errorf("eval: rule %d: unresolvable subgoals remain (unsafe rule slipped through): %v",
			st.r.ID, deferred)
	}
	return st.sink(s, used)
}

// applyAggregateRule evaluates an aggregate-headed rule: body solutions
// are grouped by the non-aggregate head arguments; each aggregate
// argument folds the *multiset* of its variable's values over the
// group's solutions (one contribution per distinct body-tuple
// combination — the same semantics the TAG-style in-network collection
// computes, where each owned tuple contributes exactly once).
// Solutions are enumerated in body order so the fold order of each
// multiset (which matters for floating-point sums) is independent of
// the subgoal-ordering heuristic. The groups are an agg.Groups, the
// table the in-network collection folds into; the head tuples are
// inserted in canonical key order.
func (e *Evaluator) applyAggregateRule(db *Database, r *ast.Rule) error {
	groups := agg.NewGroups()
	err := e.streamBodyIn(nil, db, r, nil, -1, true, nil, func(s unify.Subst, _ []posTuple) error {
		gargs := make([]ast.Term, 0, len(r.Head.Args))
		for i, a := range r.Head.Args {
			if r.HeadAggs[i] != nil {
				continue
			}
			v, err := builtin.Standard.EvalTerm(a, s)
			if err != nil {
				return err
			}
			gargs = append(gargs, v)
		}
		g, err := groups.Get(gargs, r.HeadAggs)
		if err != nil {
			return fmt.Errorf("eval: rule %d: %w", r.ID, err)
		}
		si := 0
		for _, a := range r.HeadAggs {
			if a == nil {
				continue
			}
			v, err := builtin.Standard.EvalTerm(ast.Var(a.Var), s)
			if err != nil {
				return err
			}
			if err := g.States[si].Add(v); err != nil {
				return fmt.Errorf("eval: rule %d: %w", r.ID, err)
			}
			si++
		}
		return nil
	})
	if err != nil {
		return err
	}
	out := make([]Tuple, 0, len(groups.ByKey))
	for _, g := range groups.ByKey {
		args := make([]ast.Term, len(r.Head.Args))
		gi, si := 0, 0
		for i, a := range r.HeadAggs {
			if a == nil {
				args[i] = g.Args[gi]
				gi++
				continue
			}
			v, err := g.States[si].Value()
			if err != nil {
				return fmt.Errorf("eval: rule %d: %w", r.ID, err)
			}
			args[i] = v
			si++
		}
		out = append(out, Tuple{Pred: r.Head.PredKey(), Args: args}.Keyed())
	}
	sortByKey(out)
	for _, t := range out {
		db.Insert(t)
	}
	return nil
}
