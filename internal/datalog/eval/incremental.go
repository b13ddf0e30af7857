package eval

import (
	"fmt"
	"strconv"

	"repro/internal/datalog/analysis"
	"repro/internal/datalog/ast"
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

// derivSep separates the components of a derivation key. It is a control
// character that cannot occur inside tuple keys (string constants may
// contain any printable character).
const derivSep = "\x1f"

// derivKey is the canonical identity of one way a tuple was derived
// (Definition 2): "r<rule ID>" then the keys of the positive body tuples
// used, in body order whatever order used lists them in. parseDerivKey
// inverts it.
func derivKey(ruleID int, used []posTuple) string {
	var arr [128]byte
	b := strconv.AppendInt(append(arr[:0], 'r'), int64(ruleID), 10)
	for prev := -1; ; {
		next := -1
		for j := range used {
			if used[j].pos > prev && (next < 0 || used[j].pos < used[next].pos) {
				next = j
			}
		}
		if next < 0 {
			return string(b)
		}
		b = append(append(b, derivSep...), used[next].t.Key()...)
		prev = used[next].pos
	}
}

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
	ev, err := New(p, opts)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{
		prog:        p,
		res:         ev.res,
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
	return m.cascade([]Change{{Tuple: t, Insert: insert}})
}

// cascade propagates the queued changes, and the derived changes they
// cause, first in first out until none is left; it returns the derived
// ones in application order (derivation-set and counting modes).
func (m *Maintainer) cascade(queue []Change) ([]Change, error) {
	var out []Change
	for steps := 0; len(queue) > 0; steps++ {
		if steps > maxCascade {
			return out, fmt.Errorf("eval: maintenance cascade exceeded %d steps (program not locally non-recursive?)", maxCascade)
		}
		m.stats.CascadeSteps++
		effects, err := m.propagate(queue[0])
		if err != nil {
			return out, err
		}
		out = append(out, effects...)
		queue = append(queue[1:], effects...)
	}
	return out, nil
}

// propagate computes the derived effects of one change through every rule
// that references its predicate: per rule, its positive occurrences and
// then its negated ones, where an insertion into S retracts the
// derivations that relied on S's tuple being absent and a deletion
// enables them.
func (m *Maintainer) propagate(c Change) ([]Change, error) {
	var out []Change
	for _, r := range m.ruleIndex[c.Tuple.Pred] {
		preds := m.ev.keysOf(r).body
		for _, negated := range [2]bool{false, true} {
			for i, l := range r.Body {
				if l.Builtin || l.Negated != negated || preds[i] != c.Tuple.Pred {
					continue
				}
				ds, err := m.solvePinned(r, i, c.Tuple, c.Insert)
				if err != nil {
					return nil, err
				}
				for _, d := range ds {
					if add := c.Insert != negated; m.applyDerivationDelta(d, add) {
						out = append(out, Change{Tuple: d.head, Insert: add})
					}
				}
			}
		}
	}
	return out, nil
}

// applyDerivationDelta adds or removes one derivation of d.head and
// reports whether the tuple's support went from empty to non-empty or
// back — a visible change, which it applies to the database.
func (m *Maintainer) applyDerivationDelta(d derived, add bool) bool {
	key := d.head.Key()
	if m.mode == Counting {
		if add {
			m.counts[key]++
			if m.counts[key] > 1 {
				return false
			}
			m.db.Insert(d.head)
			return true
		}
		m.counts[key]--
		if m.counts[key] > 0 {
			return false
		}
		delete(m.counts, key)
		m.db.Delete(d.head)
		return true
	}
	// A set exists exactly while it is non-empty.
	set := m.derivations[key]
	if add {
		if set != nil {
			set[d.deriv] = true
			return false
		}
		m.derivations[key] = map[string]bool{d.deriv: true}
		m.db.Insert(d.head)
		return true
	}
	if !set[d.deriv] {
		return false // removing an unknown derivation: harmless no-op
	}
	delete(set, d.deriv)
	if len(set) > 0 {
		return false
	}
	delete(m.derivations, key)
	m.db.Delete(d.head)
	return true
}

// --- DRed (delete-and-rederive), stratum by stratum ---

// runDRed propagates one base change through the strata using the
// rederivation approach: per stratum, over-delete, rederive, then apply
// insertions; net changes feed the next stratum.
func (m *Maintainer) runDRed(c0 Change) ([]Change, error) {
	// Group derived predicates' rules by stratum.
	strata := make([][]*ast.Rule, m.res.NumStrata)
	for _, r := range m.prog.Rules {
		if len(r.Body) > 0 {
			s := m.res.Strata[r.Head.PredKey()]
			strata[s] = append(strata[s], r)
		}
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
		rules := strata[s]
		if len(rules) == 0 {
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
			for _, r := range rules {
				preds := m.ev.keysOf(r).body
				for i, l := range r.Body {
					if l.Builtin || l.Negated != c.Insert || preds[i] != c.Tuple.Pred {
						continue
					}
					ds, err := m.solvePinned(r, i, c.Tuple, c.Insert)
					if err != nil {
						return out, err
					}
					for _, d := range ds {
						if !m.db.Contains(d.head) || odSeen[d.head.Key()] {
							continue
						}
						odSeen[d.head.Key()] = true
						m.db.Delete(d.head)
						overdeleted = append(overdeleted, d.head)
						queue = append(queue, Change{Tuple: d.head, Insert: false})
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
			for _, r := range rules {
				preds := m.ev.keysOf(r).body
				for i, l := range r.Body {
					if l.Builtin || l.Negated == c.Insert || preds[i] != c.Tuple.Pred {
						continue
					}
					ds, err := m.solvePinned(r, i, c.Tuple, c.Insert)
					if err != nil {
						return out, err
					}
					for _, d := range ds {
						if m.db.Insert(d.head) {
							inserted = append(inserted, d.head)
							insQueue = append(insQueue, Change{Tuple: d.head, Insert: true})
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
		ds, err := m.solveWith(r, &seed{skip: -1, subst: s0})
		if err != nil {
			return false, err
		}
		// Head arguments may involve arithmetic; verify instantiation.
		for _, d := range ds {
			if d.head.Equal(t) {
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

// derived is one body solution seen from the head: the tuple it derives
// and, in SetOfDerivations mode, the identity of the derivation.
type derived struct {
	head  Tuple
	deriv string
}

// solvePinned solves r's body with subgoal i matched against the changed
// tuple t. A positive subgoal pins t there (see seed); a negated one is
// only suppressed — its absence check is the thing that changed — and
// the positive rest is solved under the bindings t gives it.
func (m *Maintainer) solvePinned(r *ast.Rule, i int, t Tuple, insert bool) ([]derived, error) {
	s0, ok := unify.MatchArgs(r.Body[i].Args, t.Args, unify.Subst{})
	if !ok {
		return nil, nil
	}
	return m.solveWith(r, &seed{skip: i, subst: s0, pinned: !r.Body[i].Negated, pin: t, insert: insert})
}

// solveWith runs the one body solver from sd, in body order, and returns
// what each solution derives. Everything is collected before the caller
// applies any of it: applying mutates the tables being walked.
func (m *Maintainer) solveWith(r *ast.Rule, sd *seed) ([]derived, error) {
	var out []derived
	err := m.ev.streamBodyIn(nil, m.db, r, nil, -1, true, sd, func(s unify.Subst, used []posTuple) error {
		head, err := m.ev.instantiateHead(r, s)
		if err != nil {
			return err
		}
		d := derived{head: head}
		if m.mode == SetOfDerivations {
			d.deriv = derivKey(r.ID, used)
		}
		out = append(out, d)
		return nil
	})
	return out, err
}
