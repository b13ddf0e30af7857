// Package eval implements the centralized bottom-up evaluator for
// deductive programs: semi-naive evaluation with stratified negation,
// stage-ordered evaluation of XY-stratified components, aggregates, and
// incremental view maintenance under insertions and deletions using the
// three approaches of Section IV-A (set-of-derivations, counting,
// rederivation).
//
// The distributed engine (internal/core) is validated against this
// evaluator: on any timeline of base-fact updates, the engine's final
// derived state must equal this evaluator's result over the surviving
// base facts.
package eval

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/datalog/analysis"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/unify"
)

// Tuple is a ground fact of a predicate.
type Tuple struct {
	Pred string // "name/arity" key
	Args []ast.Term

	// key caches the canonical identity string; "" means not yet
	// computed. The encoding is fixed: routing (consistent hashing of
	// tuple keys) and derivation identities depend on it byte-for-byte.
	key string
}

// NewTuple builds a tuple from a predicate name and ground arguments.
func NewTuple(name string, args ...ast.Term) Tuple {
	return Tuple{Pred: fmt.Sprintf("%s/%d", name, len(args)), Args: args}.Keyed()
}

// Key returns a canonical identity string for the tuple.
func (t Tuple) Key() string {
	if t.key != "" {
		return t.key
	}
	return t.computeKey()
}

// Keyed returns t with its key cached, computing it if needed. Storage
// layers call this once on the way in so every later identity check is a
// field read.
func (t Tuple) Keyed() Tuple {
	if t.key == "" {
		t.key = t.computeKey()
	}
	return t
}

func (t Tuple) computeKey() string {
	var arr [64]byte // most keys fit; append spills to the heap if not
	b := append(arr[:0], t.Pred...)
	b = append(b, '|')
	for i, a := range t.Args {
		if i > 0 {
			b = append(b, ',')
		}
		b = a.AppendKey(b)
	}
	return string(b)
}

// Name returns the bare predicate name (without arity suffix).
func (t Tuple) Name() string {
	if i := strings.LastIndex(t.Pred, "/"); i >= 0 {
		return t.Pred[:i]
	}
	return t.Pred
}

// String renders the tuple in source syntax.
func (t Tuple) String() string {
	var arr [64]byte // most tuples fit; append spills to the heap if not
	return string(t.AppendString(arr[:0]))
}

// AppendString appends the tuple's source-syntax rendering (String) to
// b.
func (t Tuple) AppendString(b []byte) []byte {
	b = append(b, t.Name()...)
	b = append(b, '(')
	b = ast.AppendTerms(b, t.Args)
	return append(b, ')')
}

// Equal reports deep equality.
func (t Tuple) Equal(u Tuple) bool {
	if t.Pred != u.Pred || len(t.Args) != len(u.Args) {
		return false
	}
	for i := range t.Args {
		if !t.Args[i].Equal(u.Args[i]) {
			return false
		}
	}
	return true
}

// Database is a set of tuples per predicate, stored in insertion order
// with lazily built hash indexes on argument positions (see storage.go).
type Database struct {
	tables map[string]*table
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*table)}
}

// Insert adds t; reports whether it was new.
func (db *Database) Insert(t Tuple) bool {
	tab := db.tables[t.Pred]
	if tab == nil {
		tab = newTable()
		db.tables[t.Pred] = tab
	}
	return tab.insert(t.Keyed())
}

// InsertNew adds t, which the caller guarantees is absent (the fixpoint
// flush re-adds only tuples checked against db at derivation time).
func (db *Database) InsertNew(t Tuple) {
	tab := db.tables[t.Pred]
	if tab == nil {
		tab = newTable()
		db.tables[t.Pred] = tab
	}
	tab.insertNew(t.Keyed())
}

// Delete removes t; reports whether it was present.
func (db *Database) Delete(t Tuple) bool {
	tab := db.tables[t.Pred]
	if tab == nil {
		return false
	}
	return tab.delete(t.Key())
}

// Contains reports membership.
func (db *Database) Contains(t Tuple) bool {
	tab := db.tables[t.Pred]
	if tab == nil {
		return false
	}
	_, ok := tab.pos[t.Key()]
	return ok
}

// lookup resolves a tuple key ("pred|args", see Tuple.Key) to the stored
// tuple through its table's position map, so following a derivation
// costs one probe per child whatever the database holds.
func (db *Database) lookup(key string) (Tuple, bool) {
	tab := db.tables[key[:strings.IndexByte(key, '|')]]
	if tab == nil {
		return Tuple{}, false
	}
	si, ok := tab.pos[key]
	if !ok {
		return Tuple{}, false
	}
	return tab.slots[si].t, true
}

// Tuples returns the tuples of predicate key ("name/arity") in canonical
// (sorted) order.
func (db *Database) Tuples(pred string) []Tuple {
	tab := db.tables[pred]
	if tab == nil {
		return nil
	}
	out := make([]Tuple, 0, tab.live())
	for _, sl := range tab.slots {
		if !sl.dead {
			out = append(out, sl.t)
		}
	}
	sortByKey(out)
	return out
}

// Match returns the tuples the goal literal matches, in canonical
// order: ground goal arguments must be equal, variables bind
// consistently (a repeated variable needs equal arguments). The goal's
// ground positions probe the table's hash index over exactly those
// columns (built on first use — the one mutation a read can cause, so
// concurrent callers serialise); a goal with none scans. Every
// candidate is re-verified by a unify.Pattern, which matches on
// registers as the node runtime does, so a candidate allocates nothing.
func (db *Database) Match(goal ast.Literal) []Tuple {
	tab := db.tables[goal.PredKey()]
	if tab == nil {
		return nil
	}
	pat := unify.NewPattern(goal.Args)
	var out []Tuple
	try := func(sl *slot) {
		if !sl.dead && pat.Match(sl.t.Args) {
			out = append(out, sl.t)
		}
	}
	// A goal binds nothing before its probe: its key is its ground
	// arguments.
	var colArr [8]int
	var keyArr [64]byte
	var tmpArr [48]byte
	cols, key, tmp := colArr[:0], keyArr[:0], tmpArr[:0]
	for j, a := range goal.Args {
		if a.Ground() {
			cols = append(cols, j)
			key, tmp = appendArgKey(key, tmp, a)
		}
	}
	if len(cols) > 0 {
		it := tab.index(cols).Probe(key)
		for si, ok := it.Next(); ok; si, ok = it.Next() {
			try(&tab.slots[si])
		}
	} else {
		for i := range tab.slots {
			try(&tab.slots[i])
		}
	}
	sortByKey(out)
	return out
}

// sortByKey puts tuples in canonical order.
func sortByKey(ts []Tuple) {
	slices.SortFunc(ts, func(a, b Tuple) int { return strings.Compare(a.Key(), b.Key()) })
}

// Count returns the number of tuples of predicate key.
func (db *Database) Count(pred string) int {
	tab := db.tables[pred]
	if tab == nil {
		return 0
	}
	return tab.live()
}

// Predicates returns all predicate keys with at least one tuple, sorted.
func (db *Database) Predicates() []string {
	var out []string
	for k, tab := range db.tables {
		if tab.live() > 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Clone deep-copies the database (terms shared; they are immutable).
// Live tuples keep their relative insertion order; indexes are not
// copied (they rebuild lazily).
func (db *Database) Clone() *Database {
	n := NewDatabase()
	for pred, tab := range db.tables {
		nt := newTable()
		for _, sl := range tab.slots {
			if !sl.dead {
				nt.insertNew(sl.t)
			}
		}
		n.tables[pred] = nt
	}
	return n
}

// TotalSize returns the total number of tuples.
func (db *Database) TotalSize() int {
	n := 0
	for _, tab := range db.tables {
		n += tab.live()
	}
	return n
}

// Options is empty: the evaluator uses builtin.Standard and the
// divergence limits below. The type stays only so that existing
// eval.New(prog, eval.Options{}) call sites, the bench module's among
// them, compile unchanged.
type Options struct{}

// Divergence guards: function symbols can make a program's model
// infinite, so fixpoint iteration and derived-term nesting are bounded.
const (
	maxRounds    = 10000
	maxTermDepth = 64
)

// Evaluator computes the model of an analyzed program.
type Evaluator struct {
	prog *ast.Program
	res  *analysis.Result

	// JoinOps counts join work: successful positive-subgoal matches plus
	// negated-subgoal containment probes — the work metric used by the
	// magic-sets experiment (E10).
	JoinOps int64
	// ScanOps counts tuples examined while expanding positive subgoals —
	// the scan width that argument-position indexes shrink. A full table
	// scan costs its size; an index probe costs only the bucket size.
	ScanOps int64

	// keyCache holds per-rule predicate keys; PredKey allocates and the
	// join inner loop asks for these on every expansion.
	keyCache map[int]*ruleKeys
	// argScratch/keyScratch back applyRule's head instantiation so
	// duplicate derivations allocate nothing; arena backs its bindings.
	argScratch []ast.Term
	keyScratch []byte
	arena      *unify.Arena
	// buf is the reusable per-group emission buffer; rounds reset it
	// instead of growing a fresh map each time.
	buf *TupleSet
	// solver/usedBuf are the reusable body-solving state and DFS path
	// buffer (see streamBodyIn).
	solver  *solveState
	usedBuf []posTuple
	// termChunk/keyChunk bulk-allocate the argument slices and identity
	// keys of derived tuples: each new tuple carves a capped sub-slice /
	// substring out of shared backing, so the per-tuple allocation cost
	// is amortized over whole chunks. Derived data lives as long as the
	// evaluator either way, so the coarser lifetime loses nothing.
	termChunk []ast.Term
	keyChunk  strings.Builder
	// freeSets/spareSetMap recycle the per-round delta sets and their
	// map once a round retires them.
	freeSets    []*TupleSet
	spareSetMap map[string]*TupleSet
}

// getSet returns an empty TupleSet, reusing a retired one when possible.
func (e *Evaluator) getSet() *TupleSet {
	if n := len(e.freeSets); n > 0 {
		s := e.freeSets[n-1]
		e.freeSets = e.freeSets[:n-1]
		return s
	}
	return NewTupleSet()
}

// chunkTerms copies args into the shared term chunk and returns a
// full-slice-capped view (later carves cannot touch it).
func (e *Evaluator) chunkTerms(args []ast.Term) []ast.Term {
	if len(args) == 0 {
		return nil
	}
	if cap(e.termChunk)-len(e.termChunk) < len(args) {
		n := 1024
		if len(args) > n {
			n = len(args)
		}
		e.termChunk = make([]ast.Term, 0, n)
	}
	start := len(e.termChunk)
	e.termChunk = append(e.termChunk, args...)
	return e.termChunk[start:len(e.termChunk):len(e.termChunk)]
}

// internKey copies kb into the shared key backing and returns it as a
// string. strings.Builder grows by reallocating, so substrings handed
// out earlier keep pointing at the retired backing and stay immutable.
func (e *Evaluator) internKey(kb []byte) string {
	start := e.keyChunk.Len()
	e.keyChunk.Write(kb)
	return e.keyChunk.String()[start:]
}

// roundBuffer returns the shared emission buffer, emptied.
func (e *Evaluator) roundBuffer() *TupleSet {
	if e.buf == nil {
		e.buf = NewTupleSet()
	}
	e.buf.Reset()
	return e.buf
}

// ruleKeys caches the head and body predicate keys of one rule, plus its
// positive body indices.
type ruleKeys struct {
	head     string
	body     []string
	positive []int
}

func (e *Evaluator) keysOf(r *ast.Rule) *ruleKeys {
	if ks, ok := e.keyCache[r.ID]; ok {
		return ks
	}
	ks := &ruleKeys{head: r.Head.PredKey(), body: make([]string, len(r.Body))}
	for i, l := range r.Body {
		ks.body[i] = l.PredKey()
	}
	ks.positive = positiveIndices(r)
	if e.keyCache == nil {
		e.keyCache = make(map[int]*ruleKeys)
	}
	e.keyCache[r.ID] = ks
	return ks
}

// New analyzes and prepares a program for evaluation.
func New(p *ast.Program, _ Options) (*Evaluator, error) {
	res, err := analysis.Analyze(p)
	if err != nil {
		return nil, err
	}
	return &Evaluator{prog: p, res: res}, nil
}

// Analysis exposes the analysis result.
func (e *Evaluator) Analysis() *analysis.Result { return e.res }

// Run computes the full model over the given base facts (plus the facts
// declared in the program) and returns the resulting database.
func (e *Evaluator) Run(base []Tuple) (*Database, error) {
	db := NewDatabase()
	for _, t := range base {
		db.Insert(t)
	}
	for _, f := range e.prog.Facts() {
		db.Insert(Tuple{Pred: f.Head.PredKey(), Args: f.Head.Args})
	}

	// Group rule predicates by stratum; evaluate strata in order.
	byStratum := make(map[int][]string)
	for pred, s := range e.res.Strata {
		if e.prog.IsDerived(pred) {
			byStratum[s] = append(byStratum[s], pred)
		}
	}
	for s := 0; s < e.res.NumStrata; s++ {
		preds := byStratum[s]
		sort.Strings(preds)
		if len(preds) == 0 {
			continue
		}
		if err := e.evalStratum(db, preds); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// evalStratum saturates the rules of the given predicates. Aggregates are
// applied after the fixpoint of their stratum (they are non-recursive by
// analysis).
func (e *Evaluator) evalStratum(db *Database, preds []string) error {
	inStratum := make(map[string]bool, len(preds))
	for _, p := range preds {
		inStratum[p] = true
	}
	var rules, aggRules []*ast.Rule
	for _, r := range e.prog.Rules {
		if len(r.Body) == 0 || !inStratum[r.Head.PredKey()] {
			continue
		}
		if r.HasAggregates() {
			aggRules = append(aggRules, r)
		} else {
			rules = append(rules, r)
		}
	}

	// Same-stage ordering from XY witnesses (if any component of this
	// stratum required one) — rules of earlier predicates run first in
	// each round so negation sees a complete same-stage table. Rules are
	// grouped by head predicate; a group's insertions are buffered and
	// flushed only after the whole group ran, so one round advances one
	// stage: a rule never observes its own round's output mid-evaluation
	// (which would let a head predicate race ahead of the negated
	// same-stage predicate that is supposed to gate it).
	groups := e.ruleGroups(rules)

	// delta: tuples new in the previous round, per predicate, in
	// insertion order (deterministic semi-naive expansion order).
	delta := make(map[string]*TupleSet)
	// Round 0: apply every rule against the full db (base facts are the
	// implicit initial delta).
	for round := 0; ; round++ {
		if round > maxRounds {
			return fmt.Errorf("eval: fixpoint did not converge within %d rounds (non-terminating function symbols?)", maxRounds)
		}
		next := e.spareSetMap
		if next == nil {
			next = make(map[string]*TupleSet)
		}
		e.spareSetMap = nil
		grew := false
		for _, group := range groups {
			// applyRule emits only keyed, depth-checked tuples absent from
			// db, so the buffer's job is in-round dedup in emission order.
			buffer := e.roundBuffer()
			emit := func(t Tuple) error {
				buffer.Add(t)
				return nil
			}
			for _, r := range group {
				if round == 0 {
					if err := e.applyRule(db, r, nil, -1, emit); err != nil {
						return err
					}
					continue
				}
				// Semi-naive: one variant per positive subgoal restricted
				// to the previous round's delta.
				ks := e.keysOf(r)
				for _, i := range ks.positive {
					key := ks.body[i]
					if delta[key].Len() == 0 {
						continue
					}
					if err := e.applyRule(db, r, delta, i, emit); err != nil {
						return err
					}
				}
			}
			// Buffered tuples were checked against db when derived and
			// deduped by the buffer; groups partition rules by head
			// predicate, so no other group inserted them meanwhile.
			for _, t := range buffer.Items() {
				db.InsertNew(t)
				if next[t.Pred] == nil {
					next[t.Pred] = e.getSet()
				}
				next[t.Pred].AddUnchecked(t)
				grew = true
			}
		}
		if !grew {
			break
		}
		// The outgoing delta's sets and map are dead; recycle them.
		for _, s := range delta {
			s.Reset()
			e.freeSets = append(e.freeSets, s)
		}
		clear(delta)
		e.spareSetMap = delta
		delta = next
	}

	// Aggregates.
	for _, r := range aggRules {
		if err := e.applyAggregateRule(db, r); err != nil {
			return err
		}
	}
	return nil
}

// ruleGroups partitions rules by head predicate, ordered so predicates
// earlier in any XY same-stage order come first.
func (e *Evaluator) ruleGroups(rules []*ast.Rule) [][]*ast.Rule {
	prio := make(map[string]int)
	for _, w := range e.res.XY {
		for i, p := range w.SameStageOrder {
			prio[p] = i + 1
		}
	}
	out := make([]*ast.Rule, len(rules))
	copy(out, rules)
	sort.SliceStable(out, func(i, j int) bool {
		return prio[out[i].Head.PredKey()] < prio[out[j].Head.PredKey()]
	})
	var groups [][]*ast.Rule
	for _, r := range out {
		k := r.Head.PredKey()
		if n := len(groups); n > 0 && groups[n-1][0].Head.PredKey() == k {
			groups[n-1] = append(groups[n-1], r)
			continue
		}
		groups = append(groups, []*ast.Rule{r})
	}
	return groups
}

func positiveIndices(r *ast.Rule) []int {
	var out []int
	for i, l := range r.Body {
		if !l.Negated && !l.Builtin {
			out = append(out, i)
		}
	}
	return out
}
