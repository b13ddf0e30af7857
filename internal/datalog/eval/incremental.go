package eval

import (
	"fmt"

	"repro/internal/datalog/analysis"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/builtin"
	"repro/internal/datalog/unify"
)

// Mode selects the incremental maintenance approach of Section IV-A.
type Mode int

const (
	// SetOfDerivations stores, with each derived tuple, the set of its
	// derivations (rule ID + the IDs of the tuples joined). Deletion
	// removes matching derivations; a tuple dies when its set empties.
	// This is the approach the paper adopts (tolerant of duplicated
	// result tuples, no extra communication).
	SetOfDerivations Mode = iota
	// Counting keeps a multiplicity counter per derived tuple.
	Counting
	// Rederivation (DRed) over-deletes then rederives survivors,
	// stratum by stratum.
	Rederivation
)

func (m Mode) String() string {
	switch m {
	case SetOfDerivations:
		return "set-of-derivations"
	case Counting:
		return "counting"
	case Rederivation:
		return "rederivation"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Derivation identifies one way a tuple was derived: the rule and the
// keys of the positive body tuples used, in body order (Definition 2).
type Derivation struct {
	RuleID int
	Used   []string
}

// Key returns the canonical identity of the derivation. The separator is
// a control character that cannot occur inside tuple keys (string
// constants may contain any printable character).
func (d Derivation) Key() string {
	k := fmt.Sprintf("r%d", d.RuleID)
	for _, u := range d.Used {
		k += derivSep + u
	}
	return k
}

// derivSep separates components of a derivation key.
const derivSep = "\x1f"

// Change records one maintenance effect on a derived predicate.
type Change struct {
	Tuple  Tuple
	Insert bool // false = delete
}

// MaintStats reports the work done by a Maintainer, for experiment E6.
type MaintStats struct {
	JoinOps         int64 // successful matches + negated probes
	ScanOps         int64 // tuples examined while expanding subgoals
	DerivationsHeld int   // derivation records currently stored
	Rederivations   int64 // rederivation probes (DRed only)
	CascadeSteps    int64
}

// Maintainer incrementally maintains the derived predicates of a program
// under base-stream insertions and deletions. The program must be
// stratified (for Rederivation) or locally non-recursive (for the
// derivation-set and counting modes), per Section IV-C.
type Maintainer struct {
	prog *ast.Program
	res  *analysis.Result
	reg  *builtin.Registry
	mode Mode

	db *Database
	// derivations[tupleKey] -> set of derivation keys (SetOfDerivations).
	derivations map[string]map[string]bool
	// counts[tupleKey] -> multiplicity (Counting).
	counts map[string]int
	// ruleIndex[predKey] -> rules with that predicate in the body.
	ruleIndex map[string][]*ast.Rule

	stats MaintStats
	ev    *Evaluator // reused for rule solving
}

// NewMaintainer prepares incremental maintenance for p in the given mode.
func NewMaintainer(p *ast.Program, mode Mode, opts Options) (*Maintainer, error) {
	opts.fill()
	ev, err := New(p, opts)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{
		prog:        p,
		res:         ev.res,
		reg:         opts.Registry,
		mode:        mode,
		db:          NewDatabase(),
		derivations: make(map[string]map[string]bool),
		counts:      make(map[string]int),
		ruleIndex:   make(map[string][]*ast.Rule),
		ev:          ev,
	}
	for _, r := range p.Rules {
		if len(r.Body) == 0 {
			if r.IsFact() {
				m.db.Insert(Tuple{Pred: r.Head.PredKey(), Args: r.Head.Args})
			}
			continue
		}
		if r.HasAggregates() {
			return nil, fmt.Errorf("eval: incremental maintenance does not support aggregates (rule %d)", r.ID)
		}
		seen := map[string]bool{}
		for _, l := range r.Body {
			if l.Builtin || seen[l.PredKey()] {
				continue
			}
			seen[l.PredKey()] = true
			m.ruleIndex[l.PredKey()] = append(m.ruleIndex[l.PredKey()], r)
		}
	}
	return m, nil
}

// DB exposes the maintained database (read-only by convention).
func (m *Maintainer) DB() *Database { return m.db }

// Stats returns work counters.
func (m *Maintainer) Stats() MaintStats {
	s := m.stats
	s.JoinOps = m.ev.JoinOps
	s.ScanOps = m.ev.ScanOps
	n := 0
	for _, set := range m.derivations {
		n += len(set)
	}
	s.DerivationsHeld = n
	return s
}

// Insert applies a base-stream insertion and cascades; it returns the
// derived-predicate changes in application order.
func (m *Maintainer) Insert(t Tuple) ([]Change, error) {
	return m.update(t, true)
}

// Delete applies a base-stream deletion and cascades.
func (m *Maintainer) Delete(t Tuple) ([]Change, error) {
	return m.update(t, false)
}

const maxCascade = 1_000_000

func (m *Maintainer) update(t Tuple, insert bool) ([]Change, error) {
	if insert {
		if !m.db.Insert(t) {
			return nil, nil // duplicate base insertion: no-op
		}
	} else {
		if !m.db.Delete(t) {
			return nil, nil // deleting an absent tuple: no-op
		}
	}
	if m.mode == Rederivation {
		return m.runDRed(Change{Tuple: t, Insert: insert})
	}
	var out []Change
	queue := []Change{{Tuple: t, Insert: insert}}
	for steps := 0; len(queue) > 0; steps++ {
		if steps > maxCascade {
			return out, fmt.Errorf("eval: maintenance cascade exceeded %d steps (program not locally non-recursive?)", maxCascade)
		}
		m.stats.CascadeSteps++
		c := queue[0]
		queue = queue[1:]
		effects, err := m.propagate(c)
		if err != nil {
			return out, err
		}
		for _, e := range effects {
			out = append(out, e)
			queue = append(queue, e)
		}
	}
	return out, nil
}

// propagate computes the derived effects of one change through every rule
// that references its predicate (derivation-set and counting modes).
func (m *Maintainer) propagate(c Change) ([]Change, error) {
	var out []Change
	for _, r := range m.ruleIndex[c.Tuple.Pred] {
		// Positive occurrences.
		for i, l := range r.Body {
			if l.Builtin || l.Negated || l.PredKey() != c.Tuple.Pred {
				continue
			}
			sols, err := m.solvePinned(r, i, c.Tuple, c.Insert)
			if err != nil {
				return nil, err
			}
			for _, sol := range sols {
				head, err := m.ev.instantiateHead(r, sol.Subst)
				if err != nil {
					return nil, err
				}
				d := derivationOf(r, sol)
				ch, err := m.applyDerivationDelta(head, d, c.Insert)
				if err != nil {
					return nil, err
				}
				out = append(out, ch...)
			}
		}
		// Negated occurrences: an insertion into S retracts derivations
		// that relied on S's tuple being absent; a deletion enables them.
		for i, l := range r.Body {
			if l.Builtin || !l.Negated || l.PredKey() != c.Tuple.Pred {
				continue
			}
			sols, err := m.solveNegPinned(r, i, c.Tuple)
			if err != nil {
				return nil, err
			}
			for _, sol := range sols {
				head, err := m.ev.instantiateHead(r, sol.Subst)
				if err != nil {
					return nil, err
				}
				d := derivationOf(r, sol)
				// Insert into S => remove derivations; delete => add.
				ch, err := m.applyDerivationDelta(head, d, !c.Insert)
				if err != nil {
					return nil, err
				}
				out = append(out, ch...)
			}
		}
	}
	return out, nil
}

func derivationOf(r *ast.Rule, sol Solution) Derivation {
	used := make([]string, len(sol.Used))
	for i, u := range sol.Used {
		used[i] = u.Key()
	}
	return Derivation{RuleID: r.ID, Used: used}
}

// applyDerivationDelta adds or removes one derivation of head and emits a
// visible change when the tuple's support transitions empty<->non-empty.
func (m *Maintainer) applyDerivationDelta(head Tuple, d Derivation, add bool) ([]Change, error) {
	key := head.Key()
	switch m.mode {
	case SetOfDerivations:
		set := m.derivations[key]
		if add {
			if set == nil {
				set = make(map[string]bool)
				m.derivations[key] = set
			}
			was := len(set)
			set[d.Key()] = true
			if was == 0 {
				m.db.Insert(head)
				return []Change{{Tuple: head, Insert: true}}, nil
			}
			return nil, nil
		}
		if set == nil || !set[d.Key()] {
			return nil, nil // removing an unknown derivation: harmless no-op
		}
		delete(set, d.Key())
		if len(set) == 0 {
			delete(m.derivations, key)
			m.db.Delete(head)
			return []Change{{Tuple: head, Insert: false}}, nil
		}
		return nil, nil
	case Counting:
		if add {
			m.counts[key]++
			if m.counts[key] == 1 {
				m.db.Insert(head)
				return []Change{{Tuple: head, Insert: true}}, nil
			}
			return nil, nil
		}
		m.counts[key]--
		if m.counts[key] <= 0 {
			delete(m.counts, key)
			m.db.Delete(head)
			return []Change{{Tuple: head, Insert: false}}, nil
		}
		return nil, nil
	}
	return nil, fmt.Errorf("eval: applyDerivationDelta in mode %v", m.mode)
}

// --- DRed (delete-and-rederive), stratum by stratum ---

// runDRed propagates one base change through the strata using the
// rederivation approach: per stratum, over-delete, rederive, then apply
// insertions; net changes feed the next stratum.
func (m *Maintainer) runDRed(c0 Change) ([]Change, error) {
	// Group derived predicates' rules by stratum.
	type stratumRules struct {
		preds map[string]bool
		rules []*ast.Rule
	}
	strata := make([]stratumRules, m.res.NumStrata)
	for i := range strata {
		strata[i].preds = map[string]bool{}
	}
	for _, r := range m.prog.Rules {
		if len(r.Body) == 0 {
			continue
		}
		s := m.res.Strata[r.Head.PredKey()]
		strata[s].preds[r.Head.PredKey()] = true
		strata[s].rules = append(strata[s].rules, r)
	}

	dels := []Tuple{}
	ins := []Tuple{}
	if c0.Insert {
		ins = append(ins, c0.Tuple)
	} else {
		dels = append(dels, c0.Tuple)
	}
	var out []Change

	for s := 0; s < m.res.NumStrata; s++ {
		sr := strata[s]
		if len(sr.rules) == 0 {
			continue
		}
		// Phase 1: over-delete. Seeds: lower-stratum deletions through
		// positive occurrences, lower-stratum insertions through negated
		// occurrences.
		overdeleted := []Tuple{}
		odSeen := map[string]bool{}
		queue := []Change{}
		for _, d := range dels {
			queue = append(queue, Change{Tuple: d, Insert: false})
		}
		for _, i := range ins {
			queue = append(queue, Change{Tuple: i, Insert: true})
		}
		for qi := 0; qi < len(queue); qi++ {
			m.stats.CascadeSteps++
			c := queue[qi]
			for _, r := range sr.rules {
				for i, l := range r.Body {
					if l.Builtin || l.PredKey() != c.Tuple.Pred {
						continue
					}
					var sols []Solution
					var err error
					switch {
					case !l.Negated && !c.Insert:
						sols, err = m.solvePinned(r, i, c.Tuple, false)
					case l.Negated && c.Insert:
						sols, err = m.solveNegPinned(r, i, c.Tuple)
					default:
						continue
					}
					if err != nil {
						return out, err
					}
					for _, sol := range sols {
						head, err := m.ev.instantiateHead(r, sol.Subst)
						if err != nil {
							return out, err
						}
						if !m.db.Contains(head) || odSeen[head.Key()] {
							continue
						}
						odSeen[head.Key()] = true
						m.db.Delete(head)
						overdeleted = append(overdeleted, head)
						queue = append(queue, Change{Tuple: head, Insert: false})
					}
				}
			}
		}
		// Phase 2: rederive.
		for again := true; again; {
			again = false
			for _, t := range overdeleted {
				if m.db.Contains(t) {
					continue
				}
				m.stats.Rederivations++
				ok, err := m.derivable(t)
				if err != nil {
					return out, err
				}
				if ok {
					m.db.Insert(t)
					again = true
				}
			}
		}
		// Phase 3: insertions. Seeds: lower-stratum insertions through
		// positive occurrences, lower-stratum (net) deletions through
		// negated occurrences.
		inserted := []Tuple{}
		insQueue := []Change{}
		for _, i := range ins {
			insQueue = append(insQueue, Change{Tuple: i, Insert: true})
		}
		for _, d := range dels {
			insQueue = append(insQueue, Change{Tuple: d, Insert: false})
		}
		for _, t := range overdeleted {
			if !m.db.Contains(t) {
				insQueue = append(insQueue, Change{Tuple: t, Insert: false})
			}
		}
		for qi := 0; qi < len(insQueue); qi++ {
			m.stats.CascadeSteps++
			c := insQueue[qi]
			for _, r := range sr.rules {
				for i, l := range r.Body {
					if l.Builtin || l.PredKey() != c.Tuple.Pred {
						continue
					}
					var sols []Solution
					var err error
					switch {
					case !l.Negated && c.Insert:
						sols, err = m.solvePinned(r, i, c.Tuple, true)
					case l.Negated && !c.Insert:
						sols, err = m.solveNegPinned(r, i, c.Tuple)
					default:
						continue
					}
					if err != nil {
						return out, err
					}
					for _, sol := range sols {
						head, err := m.ev.instantiateHead(r, sol.Subst)
						if err != nil {
							return out, err
						}
						if m.db.Insert(head) {
							inserted = append(inserted, head)
							insQueue = append(insQueue, Change{Tuple: head, Insert: true})
						}
					}
				}
			}
		}
		// Net changes of this stratum.
		var nextDels, nextIns []Tuple
		nextDels = append(nextDels, dels...)
		nextIns = append(nextIns, ins...)
		for _, t := range overdeleted {
			if !m.db.Contains(t) {
				nextDels = append(nextDels, t)
				out = append(out, Change{Tuple: t, Insert: false})
			}
		}
		for _, t := range inserted {
			if m.db.Contains(t) {
				nextIns = append(nextIns, t)
				out = append(out, Change{Tuple: t, Insert: true})
			}
		}
		dels, ins = nextDels, nextIns
	}
	return out, nil
}

// derivable probes whether t has any derivation in the current database.
func (m *Maintainer) derivable(t Tuple) (bool, error) {
	for _, r := range m.prog.RulesFor(t.Pred) {
		if len(r.Body) == 0 {
			if r.IsFact() && (Tuple{Pred: r.Head.PredKey(), Args: r.Head.Args}).Equal(t) {
				return true, nil
			}
			continue
		}
		s0, ok := headMatch(r, t)
		if !ok {
			continue
		}
		sols, err := m.solveWith(r, -1, s0, -1, Tuple{}, nil, nil)
		if err != nil {
			return false, err
		}
		// Head arguments may involve arithmetic; verify instantiation.
		for _, sol := range sols {
			h, err := m.ev.instantiateHead(r, sol.Subst)
			if err != nil {
				return false, err
			}
			if h.Equal(t) {
				return true, nil
			}
		}
	}
	return false, nil
}

// headMatch seeds a substitution from matching r's head against t where
// the head args are plain patterns; for computed heads it returns an
// empty seed (the solver enumerates and derivable() filters).
func headMatch(r *ast.Rule, t Tuple) (unify.Subst, bool) {
	s := unify.Subst{}
	for i, a := range r.Head.Args {
		if ns, ok := unify.Match(a, t.Args[i], s); ok {
			s = ns
			continue
		}
		if a.Ground() || a.Kind == ast.KindVar {
			return s, false // definite mismatch
		}
		// Computed head argument (e.g. D+1): cannot pre-match; solve
		// unconstrained and filter afterwards.
		return unify.Subst{}, true
	}
	return s, true
}

// --- pinned body solving ---

// solvePinned solves r's body with positive subgoal i pinned to t.
//
// Exact delta semantics (needed by Counting; harmless elsewhere): for
// other occurrences of t's predicate, positions before i range over the
// pre-change table and positions after i over the post-change table. On
// insertion the pre-change table excludes t; on deletion the post-change
// table must still include t (it has just been removed from db).
func (m *Maintainer) solvePinned(r *ast.Rule, i int, t Tuple, insert bool) ([]Solution, error) {
	s0, ok := unify.MatchArgs(r.Body[i].Args, t.Args, unify.Subst{})
	if !ok {
		return nil, nil
	}
	exclude := make(map[int]string)
	include := make(map[int]Tuple)
	for j, l := range r.Body {
		if j == i || l.Builtin || l.Negated || l.PredKey() != t.Pred {
			continue
		}
		if insert && j < i {
			exclude[j] = t.Key() // pre-change table: without t
		}
		if !insert && j > i {
			include[j] = t // post-change table at time of derivation: with t
		}
	}
	return m.solveWith(r, i, s0, i, t, exclude, include)
}

// solveNegPinned solves r's positive body with negated subgoal i pinned
// to match t, skipping that subgoal's absence check.
func (m *Maintainer) solveNegPinned(r *ast.Rule, i int, t Tuple) ([]Solution, error) {
	s0, ok := unify.MatchArgs(r.Body[i].Args, t.Args, unify.Subst{})
	if !ok {
		return nil, nil
	}
	return m.solveWith(r, i, s0, -1, Tuple{}, nil, nil)
}

// solveWith runs the body solver with subgoal `skip` suppressed, an
// initial substitution, an optional pinned positive tuple recorded at its
// body position, and per-index table adjustments.
func (m *Maintainer) solveWith(r *ast.Rule, skip int, s0 unify.Subst, pinIdx int, pin Tuple, exclude map[int]string, include map[int]Tuple) ([]Solution, error) {
	var out []Solution
	st := &pinnedSolver{
		ev: m.ev, db: m.db, r: r, skip: skip,
		exclude: exclude, include: include, out: &out,
	}
	var used []posTuple
	if pinIdx >= 0 {
		used = append(used, posTuple{pos: pinIdx, t: pin})
	}
	err := st.step(0, s0, nil, used)
	return out, err
}

type posTuple struct {
	pos int
	t   Tuple
}

// pinnedSolver mirrors solveState with a suppressed subgoal and
// per-position table adjustments; used tuples carry their body position
// so derivation keys come out in body order regardless of pin position.
type pinnedSolver struct {
	ev      *Evaluator
	db      *Database
	r       *ast.Rule
	skip    int
	exclude map[int]string
	include map[int]Tuple
	out     *[]Solution
}

func (st *pinnedSolver) step(i int, s unify.Subst, deferred []ast.Literal, used []posTuple) error {
	base := &solveState{ev: st.ev, db: st.db, r: st.r, deltaIdx: -1}
	var still []ast.Literal
	for _, d := range deferred {
		ok, ns, err := base.tryLiteral(d, s)
		switch {
		case err == builtin.ErrNotGround || err == errNotReady:
			still = append(still, d)
		case err != nil:
			return err
		case !ok:
			return nil
		default:
			s = ns
		}
	}
	deferred = still
	if i == len(st.r.Body) {
		return st.finish(s, deferred, used)
	}
	if i == st.skip {
		return st.step(i+1, s, deferred, used)
	}
	l := st.r.Body[i]
	if l.Builtin {
		ok, ns, err := st.ev.opts.Registry.Eval(l, s)
		switch {
		case err == builtin.ErrNotGround:
			return st.step(i+1, s, append(deferred, l), used)
		case err != nil:
			return err
		case !ok:
			return nil
		default:
			return st.step(i+1, ns, deferred, used)
		}
	}
	if l.Negated {
		ok, ns, err := base.tryLiteral(l, s)
		switch {
		case err == errNotReady:
			return st.step(i+1, s, append(deferred, l), used)
		case err != nil:
			return err
		case !ok:
			return nil
		default:
			return st.step(i+1, ns, deferred, used)
		}
	}
	// Positive subgoal: iterate the table in insertion order (index
	// probe when argument positions are bound), honoring the per-index
	// table adjustments. The include tuple — present at derivation time
	// but absent from the current table — is examined last.
	tab := st.db.tables[l.PredKey()]
	excl := st.exclude[i]
	scan := func(t Tuple) error {
		st.ev.ScanOps++
		ns, ok := unify.MatchArgs(l.Args, t.Args, s)
		if !ok {
			return nil
		}
		st.ev.JoinOps++
		return st.step(i+1, ns, deferred, append(used, posTuple{pos: i, t: t}))
	}
	if tab != nil {
		if cols, key := BoundCols(l.Args, s); len(cols) > 0 {
			it := tab.index(cols).probeString(key)
			for si, ok := it.nextSlot(); ok; si, ok = it.nextSlot() {
				sl := tab.slots[si]
				if sl.dead || sl.t.Key() == excl {
					continue
				}
				if err := scan(sl.t); err != nil {
					return err
				}
			}
		} else {
			for _, sl := range tab.slots {
				if sl.dead || sl.t.Key() == excl {
					continue
				}
				if err := scan(sl.t); err != nil {
					return err
				}
			}
		}
	}
	if inc, ok := st.include[i]; ok {
		present := false
		if tab != nil {
			_, present = tab.pos[inc.Key()]
		}
		if !present && inc.Key() != excl {
			if err := scan(inc.Keyed()); err != nil {
				return err
			}
		}
	}
	return nil
}

func (st *pinnedSolver) finish(s unify.Subst, deferred []ast.Literal, used []posTuple) error {
	// Resolve remaining deferred literals as the base solver does.
	base := &solveState{ev: st.ev, db: st.db, r: st.r, deltaIdx: -1}
	for progress := true; progress && len(deferred) > 0; {
		progress = false
		var rest []ast.Literal
		for _, d := range deferred {
			ok, ns, err := base.tryLiteral(d, s)
			switch {
			case err == errNotReady || err == builtin.ErrNotGround:
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
		return fmt.Errorf("eval: rule %d: unresolvable subgoals remain: %v", st.r.ID, deferred)
	}
	*st.out = append(*st.out, Solution{Subst: s, Used: orderedTuples(used)})
	return nil
}
