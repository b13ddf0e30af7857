// Package unify implements substitutions, unification and one-way term
// matching over the term language of package ast. Join conditions in the
// distributed engine reduce to term matching plus built-in evaluation, per
// Section III-A ("Function Symbols and Spatial Constraints") of the paper.
package unify

import (
	"sort"
	"strings"

	"repro/internal/datalog/ast"
)

// Subst is an immutable-by-convention substitution from variable names to
// terms. The zero value is an empty substitution ready to use; Bind
// returns extended copies so parent substitutions stay valid (needed when
// a join branches over multiple matching tuples).
type Subst struct {
	m *node
}

// node is a persistent association-list node; lookups walk the chain.
// For the small substitutions that arise in rule evaluation (a handful of
// variables) this is faster and far less garbage than copying maps.
type node struct {
	name string
	term ast.Term
	next *node
}

// Lookup returns the binding of name and whether it exists.
func (s Subst) Lookup(name string) (ast.Term, bool) {
	for n := s.m; n != nil; n = n.next {
		if n.name == name {
			return n.term, true
		}
	}
	return ast.Term{}, false
}

// Bind returns s extended with name -> t. It does not check for an
// existing binding; callers should Lookup first when that matters.
func (s Subst) Bind(name string, t ast.Term) Subst {
	return Subst{m: &node{name: name, term: t, next: s.m}}
}

// Arena bump-allocates substitution nodes for callers that drop every
// Subst extended through it before calling Reset — the evaluator's
// streaming join does, and binding is its hottest allocation site. The
// plain Bind/Match/Unify entry points allocate on the heap and are
// always safe.
type Arena struct {
	blocks [][]node
	bi, ni int
}

const arenaBlock = 256

func (a *Arena) alloc(name string, term ast.Term, next *node) *node {
	if a.bi == len(a.blocks) {
		a.blocks = append(a.blocks, make([]node, arenaBlock))
	}
	n := &a.blocks[a.bi][a.ni]
	n.name, n.term, n.next = name, term, next
	if a.ni++; a.ni == arenaBlock {
		a.bi, a.ni = a.bi+1, 0
	}
	return n
}

// Reset recycles every node. All Substs built through this arena must be
// dead — a retained one would silently alias future bindings.
func (a *Arena) Reset() { a.bi, a.ni = 0, 0 }

// BindIn is Bind allocating from a; a nil arena falls back to the heap.
func (s Subst) BindIn(a *Arena, name string, t ast.Term) Subst {
	if a == nil {
		return s.Bind(name, t)
	}
	return Subst{m: a.alloc(name, t, s.m)}
}

// Len returns the number of bound (possibly shadowed) entries.
func (s Subst) Len() int {
	n := 0
	seen := map[string]bool{}
	for p := s.m; p != nil; p = p.next {
		if !seen[p.name] {
			seen[p.name] = true
			n++
		}
	}
	return n
}

// Names returns the bound variable names, sorted.
func (s Subst) Names() []string {
	seen := map[string]bool{}
	var out []string
	for p := s.m; p != nil; p = p.next {
		if !seen[p.name] {
			seen[p.name] = true
			out = append(out, p.name)
		}
	}
	sort.Strings(out)
	return out
}

// Apply replaces every variable bound in s by its (recursively applied)
// binding. Unbound variables remain.
func (s Subst) Apply(t ast.Term) ast.Term {
	switch t.Kind {
	case ast.KindVar:
		if b, ok := s.Lookup(t.Str); ok {
			// Scalar bindings are fixpoints of Apply; skip the recursion
			// for this dominant case.
			if b.Kind != ast.KindVar && b.Kind != ast.KindCompound {
				return b
			}
			// Bindings may themselves contain variables bound later
			// (e.g. chained unification); resolve recursively.
			if b.Kind == ast.KindVar && b.Str == t.Str {
				return b
			}
			return s.Apply(b)
		}
		return t
	case ast.KindCompound:
		return applyArgs(s, t)
	default:
		return t
	}
}

// Bindings is what code generic over the binding representation — a
// persistent Subst or a register file, Slots — needs of it.
type Bindings interface{ Apply(ast.Term) ast.Term }

// applyArgs applies b to the arguments of compound t, sharing t when
// nothing under it is bound.
func applyArgs[B Bindings](b B, t ast.Term) ast.Term {
	args := make([]ast.Term, len(t.Args))
	changed := false
	for i, a := range t.Args {
		args[i] = b.Apply(a)
		if !args[i].Equal(a) {
			changed = true
		}
	}
	if !changed {
		return t
	}
	return ast.Compound(t.Str, args...)
}

// ApplyLiteral applies s to every argument of l.
func (s Subst) ApplyLiteral(l ast.Literal) ast.Literal {
	args := make([]ast.Term, len(l.Args))
	for i, a := range l.Args {
		args[i] = s.Apply(a)
	}
	return ast.Literal{Predicate: l.Predicate, Args: args, Negated: l.Negated, Builtin: l.Builtin}
}

// String renders the substitution as {X=1, Y=f(2)}.
func (s Subst) String() string {
	names := s.Names()
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		t, _ := s.Lookup(n)
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Unify unifies t and u under s, returning the extended substitution.
// Standard Robinson unification with occurs-check (function symbols make
// the occurs-check matter: X = f(X) must fail).
func Unify(t, u ast.Term, s Subst) (Subst, bool) {
	return UnifyIn(nil, t, u, s)
}

// UnifyIn is Unify with new bindings allocated from a (nil = heap).
func UnifyIn(a *Arena, t, u ast.Term, s Subst) (Subst, bool) {
	t = walk(t, s)
	u = walk(u, s)
	switch {
	case t.Kind == ast.KindVar && u.Kind == ast.KindVar && t.Str == u.Str:
		return s, true
	case t.Kind == ast.KindVar:
		if occurs(t.Str, u, s) {
			return s, false
		}
		return s.BindIn(a, t.Str, u), true
	case u.Kind == ast.KindVar:
		if occurs(u.Str, t, s) {
			return s, false
		}
		return s.BindIn(a, u.Str, t), true
	case t.Kind == ast.KindCompound && u.Kind == ast.KindCompound:
		if t.Str != u.Str || len(t.Args) != len(u.Args) {
			return s, false
		}
		for i := range t.Args {
			var ok bool
			s, ok = UnifyIn(a, t.Args[i], u.Args[i], s)
			if !ok {
				return s, false
			}
		}
		return s, true
	default:
		if t.Equal(u) {
			return s, true
		}
		return s, false
	}
}

// walk resolves a variable to its binding (one level deep per step) until
// reaching a non-variable or unbound variable.
func walk(t ast.Term, s Subst) ast.Term {
	for t.Kind == ast.KindVar {
		b, ok := s.Lookup(t.Str)
		if !ok {
			return t
		}
		if b.Kind == ast.KindVar && b.Str == t.Str {
			return t
		}
		t = b
	}
	return t
}

func occurs(name string, t ast.Term, s Subst) bool {
	t = walk(t, s)
	switch t.Kind {
	case ast.KindVar:
		return t.Str == name
	case ast.KindCompound:
		for _, a := range t.Args {
			if occurs(name, a, s) {
				return true
			}
		}
	}
	return false
}

// Match performs one-way matching: pattern may contain variables, value
// must be ground. This is the "term-matching operator" used to evaluate
// join conditions locally at each node (Section IV-C). Returns the
// extended substitution.
func Match(pattern, value ast.Term, s Subst) (Subst, bool) {
	return MatchIn(nil, pattern, value, s)
}

// MatchIn is Match with new bindings allocated from a (nil = heap).
func MatchIn(a *Arena, pattern, value ast.Term, s Subst) (Subst, bool) {
	switch pattern.Kind {
	case ast.KindVar:
		if b, ok := s.Lookup(pattern.Str); ok {
			if b.Equal(value) {
				return s, true
			}
			// The existing binding may itself contain variables (from
			// a partially-instantiated partial result); unify then.
			return UnifyIn(a, b, value, s)
		}
		return s.BindIn(a, pattern.Str, value), true
	case ast.KindCompound:
		if value.Kind != ast.KindCompound || pattern.Str != value.Str ||
			len(pattern.Args) != len(value.Args) {
			return s, false
		}
		for i := range pattern.Args {
			var ok bool
			s, ok = MatchIn(a, pattern.Args[i], value.Args[i], s)
			if !ok {
				return s, false
			}
		}
		return s, true
	default:
		if pattern.Equal(value) {
			return s, true
		}
		return s, false
	}
}

// MatchArgs matches a slice of patterns against a slice of ground values.
func MatchArgs(patterns, values []ast.Term, s Subst) (Subst, bool) {
	return MatchArgsIn(nil, patterns, values, s)
}

// MatchArgsIn is MatchArgs with new bindings allocated from a (nil = heap).
func MatchArgsIn(a *Arena, patterns, values []ast.Term, s Subst) (Subst, bool) {
	if len(patterns) != len(values) {
		return s, false
	}
	for i := range patterns {
		var ok bool
		s, ok = MatchIn(a, patterns[i], values[i], s)
		if !ok {
			return s, false
		}
	}
	return s, true
}

// Slots is the binding representation of a rule compiled to variable
// slots (ast.Rule.NumberVars): Regs[i] holds the ground value of the
// variable whose nodes carry Int == i, valid where Set has bit i. Where a
// Subst is persistent and keyed by name, Slots is a fixed-width register
// file that matching stores into: a caller that branches copies the
// registers, or just restores Set — a register outside Set is never read.
// Values only ever come from ground tuples and evaluated built-ins, so a
// bound register is ground and Match needs no unification.
type Slots struct {
	Regs []ast.Term
	Set  uint64
}

// SlotMask returns the set of slots the numbered terms mention.
func SlotMask(ts ...ast.Term) uint64 {
	var m uint64
	for _, t := range ts {
		if t.Kind == ast.KindVar && t.Int >= 0 {
			m |= 1 << uint(t.Int)
		} else if t.Kind == ast.KindCompound {
			m |= SlotMask(t.Args...)
		}
	}
	return m
}

// Apply is Subst.Apply over registers.
func (b Slots) Apply(t ast.Term) ast.Term {
	switch t.Kind {
	case ast.KindVar:
		if t.Int >= 0 && b.Set&(1<<uint(t.Int)) != 0 {
			return b.Regs[t.Int]
		}
	case ast.KindCompound:
		return applyArgs(b, t)
	}
	return t
}

// Match is Match for a numbered pattern: a bound slot compares, an
// unbound one is stored, and a negative slot is a wildcard. On failure
// the slots bound on the way stay set; the caller restores Set.
func (b *Slots) Match(pattern, value ast.Term) bool {
	switch pattern.Kind {
	case ast.KindVar:
		if pattern.Int < 0 {
			return true
		}
		bit := uint64(1) << uint(pattern.Int)
		if b.Set&bit != 0 {
			return b.Regs[pattern.Int].Equal(value)
		}
		b.Regs[pattern.Int], b.Set = value, b.Set|bit
		return true
	case ast.KindCompound:
		return value.Kind == ast.KindCompound && pattern.Str == value.Str &&
			b.MatchArgs(pattern.Args, value.Args)
	default:
		return pattern.Equal(value)
	}
}

// MatchArgs is MatchArgs for numbered patterns.
func (b *Slots) MatchArgs(patterns, values []ast.Term) bool {
	if len(patterns) != len(values) {
		return false
	}
	for i := range patterns {
		if !b.Match(patterns[i], values[i]) {
			return false
		}
	}
	return true
}

// Pattern is a literal's arguments compiled once for matching many
// ground tuples, as a goal filters its candidates: variables are
// numbered onto a register file, as ast.Rule.NumberVars numbers a rule,
// so a candidate binds nothing on the heap. A variable that occurs once
// is a wildcard; the repeated ones get slots by first occurrence. Up
// to 8 arguments and 8 slots live in the Pattern itself.
type Pattern struct {
	n, slots int
	args     []ast.Term // the numbered arguments, past len(argArr)
	regs     []ast.Term // the registers, past len(regArr)
	argArr   [8]ast.Term
	regArr   [8]ast.Term
}

// NewPattern compiles args. Its cost is linear in their size, however
// many variables they hold.
func NewPattern(args []ast.Term) Pattern {
	var tabArr [8]varUse
	vars := varTable{list: tabArr[:0]}.count(args)
	p := Pattern{n: len(args)}
	for i := range vars.list {
		vars.list[i].slot = -1
		if vars.list[i].count > 1 {
			vars.list[i].slot, p.slots = int64(p.slots), p.slots+1
		}
	}
	if len(args) > len(p.argArr) {
		p.args = make([]ast.Term, len(args))
	}
	for i, a := range args {
		t, _ := vars.number(a, p.slots > 64)
		if p.args != nil {
			p.args[i] = t
		} else {
			p.argArr[i] = t
		}
	}
	if p.slots > len(p.regArr) {
		p.regs = make([]ast.Term, p.slots)
	}
	return p
}

// Match reports whether values match the pattern: ground arguments are
// equal and a repeated variable meets equal values. Up to 64 slots it
// is a Slots match; past that Set cannot tell a bound register from a
// free one, and matchWide, which needs no set bits, takes over.
func (p *Pattern) Match(values []ast.Term) bool {
	if len(values) != p.n {
		return false
	}
	args, regs := p.args, p.regs
	if args == nil {
		args = p.argArr[:p.n]
	}
	if regs == nil {
		regs = p.regArr[:]
	}
	if p.slots > 64 {
		for i := range args {
			if !matchWide(regs, args[i], values[i]) {
				return false
			}
		}
		return true
	}
	b := Slots{Regs: regs}
	return b.MatchArgs(args, values)
}

// matchWide is Slots.Match for a wide pattern, one numbered in match
// order: a slot's first occurrence (Int >= 0) stores its value, every
// later one (Int = -(slot+2)) compares, and -1 is a wildcard.
func matchWide(regs []ast.Term, pattern, value ast.Term) bool {
	switch pattern.Kind {
	case ast.KindVar:
		switch {
		case pattern.Int >= 0:
			regs[pattern.Int] = value
		case pattern.Int < -1:
			return regs[-pattern.Int-2].Equal(value)
		}
		return true
	case ast.KindCompound:
		if value.Kind != ast.KindCompound || pattern.Str != value.Str ||
			len(pattern.Args) != len(value.Args) {
			return false
		}
		for i := range pattern.Args {
			if !matchWide(regs, pattern.Args[i], value.Args[i]) {
				return false
			}
		}
		return true
	default:
		return pattern.Equal(value)
	}
}

// varUse is one variable of a Pattern: its occurrences and slot, and
// whether numbering has met it yet.
type varUse struct {
	name  string
	count int
	slot  int64
	seen  bool
}

// varTable holds a Pattern's variables in order of first occurrence. It
// finds a name by scanning while there are few and by a map past that,
// so a goal of many variables costs time linear in them.
type varTable struct {
	list  []varUse
	index map[string]int // name -> position in list; nil while list is short
}

const scanVars = 8

func (v *varTable) find(name string) int {
	if v.index != nil {
		if i, ok := v.index[name]; ok {
			return i
		}
		return -1
	}
	for i := range v.list {
		if v.list[i].name == name {
			return i
		}
	}
	return -1
}

// count returns v with ts's variables added and counted.
func (v varTable) count(ts []ast.Term) varTable {
	for _, t := range ts {
		switch t.Kind {
		case ast.KindVar:
			i := v.find(t.Str)
			if i < 0 {
				i = len(v.list)
				v.list = append(v.list, varUse{name: t.Str})
				if v.index != nil {
					v.index[t.Str] = i
				} else if len(v.list) > scanVars {
					v.index = make(map[string]int, 2*len(v.list))
					for j := range v.list {
						v.index[v.list[j].name] = j
					}
				}
			}
			v.list[i].count++
		case ast.KindCompound:
			v = v.count(t.Args)
		}
	}
	return v
}

// number returns t with its variables numbered, and whether t holds a
// variable; a ground compound is not copied. In a wide pattern a
// slot's repeats carry -(slot+2) (matchWide).
func (v *varTable) number(t ast.Term, wide bool) (ast.Term, bool) {
	switch t.Kind {
	case ast.KindVar:
		u := &v.list[v.find(t.Str)]
		t.Int = u.slot
		if wide && u.seen && u.slot >= 0 {
			t.Int = -u.slot - 2
		}
		u.seen = true
		return t, true
	case ast.KindCompound:
		var args []ast.Term
		for i, a := range t.Args {
			a, hasVar := v.number(a, wide)
			if hasVar && args == nil {
				args = make([]ast.Term, len(t.Args))
				copy(args, t.Args[:i])
			}
			if args != nil {
				args[i] = a
			}
		}
		if args != nil {
			t.Args = args
			return t, true
		}
	}
	return t, false
}
