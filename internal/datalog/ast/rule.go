package ast

import (
	"fmt"
	"strconv"
	"strings"
)

// Literal is a possibly-negated predicate application p(t1, ..., tn), or a
// built-in comparison/predicate call. Comparisons such as `X < Y` parse to
// built-in literals with predicate "<".
type Literal struct {
	Predicate string
	Args      []Term
	Negated   bool // NOT p(...)
	Builtin   bool // evaluated locally rather than matched against a table
}

// Lit constructs a positive relational literal.
func Lit(pred string, args ...Term) Literal {
	return Literal{Predicate: pred, Args: args}
}

// NotLit constructs a negated relational literal.
func NotLit(pred string, args ...Term) Literal {
	return Literal{Predicate: pred, Args: args, Negated: true}
}

// BuiltinLit constructs a built-in literal.
func BuiltinLit(pred string, args ...Term) Literal {
	return Literal{Predicate: pred, Args: args, Builtin: true}
}

// PredKey returns the "name/arity" key identifying the predicate.
// Built by concatenation, not fmt — the evaluator's inner loop asks for
// these keys constantly.
func (l Literal) PredKey() string {
	return l.Predicate + "/" + strconv.Itoa(len(l.Args))
}

// Vars appends all variable names occurring in l to dst.
func (l Literal) Vars(dst []string) []string {
	for _, a := range l.Args {
		dst = a.Vars(dst)
	}
	return dst
}

// Equal reports structural equality.
func (l Literal) Equal(m Literal) bool {
	if l.Predicate != m.Predicate || l.Negated != m.Negated ||
		l.Builtin != m.Builtin || len(l.Args) != len(m.Args) {
		return false
	}
	for i := range l.Args {
		if !l.Args[i].Equal(m.Args[i]) {
			return false
		}
	}
	return true
}

// String renders the literal in source syntax.
func (l Literal) String() string {
	var b strings.Builder
	if l.Negated {
		b.WriteString("NOT ")
	}
	if l.Builtin && len(l.Args) == 2 && isInfix(l.Predicate) {
		b.WriteString(l.Args[0].String())
		b.WriteByte(' ')
		b.WriteString(l.Predicate)
		b.WriteByte(' ')
		b.WriteString(l.Args[1].String())
		return b.String()
	}
	b.WriteString(l.Predicate)
	if len(l.Args) > 0 {
		b.WriteByte('(')
		b.WriteString(FormatTerms(l.Args))
		b.WriteByte(')')
	}
	return b.String()
}

func isInfix(op string) bool {
	switch op {
	case "<", "<=", ">", ">=", "=", "==", "!=", "is":
		return true
	}
	return false
}

// RenameVars returns a copy of l with variables renamed by f.
func (l Literal) RenameVars(f func(string) string) Literal {
	return l.mapVars(func(v Term) Term { return Var(f(v.Str)) })
}

func (l Literal) mapVars(f func(Term) Term) Literal {
	args := make([]Term, len(l.Args))
	for i, a := range l.Args {
		args[i] = a.mapVars(f)
	}
	return Literal{Predicate: l.Predicate, Args: args, Negated: l.Negated, Builtin: l.Builtin}
}

// Aggregate describes an aggregate expression appearing in a rule head,
// e.g. shortest(X, min<D>). Var is the aggregated variable; Func one of
// count, sum, min, max, avg.
type Aggregate struct {
	Func string
	Var  string
}

// Rule is a deductive rule Head :- Body. A rule with an empty body is a
// fact. HeadAggs[i] is non-nil when the i-th head argument is an aggregate
// over the group defined by the remaining head arguments.
type Rule struct {
	Head     Literal
	Body     []Literal
	HeadAggs []*Aggregate // nil or len == len(Head.Args)
	ID       int          // assigned by the parser/program; part of derivations
	Line     int          // source line, 0 if synthesized
}

// IsFact reports whether the rule has an empty body and a ground head.
func (r *Rule) IsFact() bool {
	if len(r.Body) > 0 {
		return false
	}
	for _, a := range r.Head.Args {
		if !a.Ground() {
			return false
		}
	}
	return true
}

// HasAggregates reports whether any head argument is an aggregate.
func (r *Rule) HasAggregates() bool {
	for _, a := range r.HeadAggs {
		if a != nil {
			return true
		}
	}
	return false
}

// PositiveBody returns the positive relational body literals, in order.
func (r *Rule) PositiveBody() []Literal {
	var out []Literal
	for _, l := range r.Body {
		if !l.Negated && !l.Builtin {
			out = append(out, l)
		}
	}
	return out
}

// NegativeBody returns the negated relational body literals, in order.
func (r *Rule) NegativeBody() []Literal {
	var out []Literal
	for _, l := range r.Body {
		if l.Negated && !l.Builtin {
			out = append(out, l)
		}
	}
	return out
}

// Builtins returns the built-in body literals, in order.
func (r *Rule) Builtins() []Literal {
	var out []Literal
	for _, l := range r.Body {
		if l.Builtin {
			out = append(out, l)
		}
	}
	return out
}

// Vars returns the set of variable names occurring anywhere in the rule,
// in first-occurrence order.
func (r *Rule) Vars() []string {
	var names []string
	names = r.Head.Vars(names)
	for _, l := range r.Body {
		names = l.Vars(names)
	}
	seen := make(map[string]bool, len(names))
	var out []string
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// RenameVars returns a copy of r with all variables renamed by f.
func (r *Rule) RenameVars(f func(string) string) *Rule {
	return r.mapVars(func(v Term) Term { return Var(f(v.Str)) })
}

// NumberVars compiles r's variables to slots: it returns a copy of r in
// which every variable node carries in Int the index of its name in
// r.Vars(), and the number of slots. Names are kept, so the copy prints,
// keys and compares like r; code that joins on a register file
// (unify.Slots) addresses registers by Int instead of looking names up.
func (r *Rule) NumberVars() (*Rule, int) {
	names := r.Vars()
	slot := make(map[string]int64, len(names))
	for i, n := range names {
		slot[n] = int64(i)
	}
	return r.mapVars(func(v Term) Term { v.Int = slot[v.Str]; return v }), len(names)
}

func (r *Rule) mapVars(f func(Term) Term) *Rule {
	body := make([]Literal, len(r.Body))
	for i, l := range r.Body {
		body[i] = l.mapVars(f)
	}
	nr := &Rule{Head: r.Head.mapVars(f), Body: body, ID: r.ID, Line: r.Line}
	if r.HeadAggs != nil {
		nr.HeadAggs = make([]*Aggregate, len(r.HeadAggs))
		for i, a := range r.HeadAggs {
			if a != nil {
				nr.HeadAggs[i] = &Aggregate{Func: a.Func, Var: f(Var(a.Var)).Str}
			}
		}
	}
	return nr
}

// String renders the rule in source syntax.
func (r *Rule) String() string {
	var b strings.Builder
	if r.HasAggregates() {
		b.WriteString(r.Head.Predicate)
		b.WriteByte('(')
		for i, a := range r.Head.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			if agg := r.HeadAggs[i]; agg != nil {
				b.WriteString(agg.Func)
				b.WriteByte('<')
				b.WriteString(agg.Var)
				b.WriteByte('>')
			} else {
				b.WriteString(a.String())
			}
		}
		b.WriteByte(')')
	} else {
		b.WriteString(r.Head.String())
	}
	if len(r.Body) == 0 {
		b.WriteByte('.')
		return b.String()
	}
	b.WriteString(" :- ")
	for i, l := range r.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(l.String())
	}
	b.WriteByte('.')
	return b.String()
}

// Program is a parsed deductive program: rules (including facts) plus
// declarations of base (extensional) predicates.
type Program struct {
	Rules []*Rule
	// Base maps "name/arity" to true for predicates declared extensional
	// (data streams generated by sensing). Predicates that never appear in
	// a head are implicitly base.
	Base map[string]bool
	// Queries lists predicates marked as query outputs (".query p/2").
	Queries []string
	// Windows maps "name/arity" to a declared sliding-window range (in
	// simulator ticks) for that data stream (".window p/2 100."). Streams
	// without a declaration use the engine default.
	Windows map[string]int64
	// Placements maps "name/arity" to a node-attribute storage placement
	// (".store j/2 at 0 hops 1."): tuples live at the node named by the
	// given argument, replicated `hops` hops around it. This is the
	// storage scheme Section V describes for the shortest-path-tree
	// programs; predicates without a placement use geographic hashing
	// and the engine's GPA scheme.
	Placements map[string]Placement
}

// Placement declares node-attribute-based storage for a predicate.
type Placement struct {
	Arg  int // argument index naming the home node
	Hops int // replication radius (0 = home node only)
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{Base: make(map[string]bool), Windows: make(map[string]int64), Placements: make(map[string]Placement)}
}

// AddRule appends r and assigns its ID.
func (p *Program) AddRule(r *Rule) {
	r.ID = len(p.Rules)
	p.Rules = append(p.Rules, r)
}

// DerivedPredicates returns the set of predicates (name/arity) appearing
// in some rule head with a non-empty body, in first-occurrence order.
func (p *Program) DerivedPredicates() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range p.Rules {
		if len(r.Body) == 0 {
			continue
		}
		k := r.Head.PredKey()
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// IsDerived reports whether key ("name/arity") appears as the head of a
// rule with a non-empty body.
func (p *Program) IsDerived(key string) bool {
	for _, r := range p.Rules {
		if len(r.Body) > 0 && r.Head.PredKey() == key {
			return true
		}
	}
	return false
}

// IsBase reports whether key names a base (extensional) predicate: either
// declared, or never derived.
func (p *Program) IsBase(key string) bool {
	if p.Base[key] {
		return true
	}
	return !p.IsDerived(key)
}

// RulesFor returns the rules whose head predicate is key, in order.
func (p *Program) RulesFor(key string) []*Rule {
	var out []*Rule
	for _, r := range p.Rules {
		if r.Head.PredKey() == key {
			out = append(out, r)
		}
	}
	return out
}

// Facts returns the ground facts declared directly in the program.
func (p *Program) Facts() []*Rule {
	var out []*Rule
	for _, r := range p.Rules {
		if r.IsFact() {
			out = append(out, r)
		}
	}
	return out
}

// Clone returns a deep-enough copy of the program sharing immutable terms.
func (p *Program) Clone() *Program {
	np := NewProgram()
	for k, v := range p.Base {
		np.Base[k] = v
	}
	for k, v := range p.Windows {
		np.Windows[k] = v
	}
	for k, v := range p.Placements {
		np.Placements[k] = v
	}
	np.Queries = append(np.Queries, p.Queries...)
	for _, r := range p.Rules {
		body := make([]Literal, len(r.Body))
		copy(body, r.Body)
		nr := &Rule{Head: r.Head, Body: body, ID: r.ID, Line: r.Line}
		if r.HeadAggs != nil {
			nr.HeadAggs = make([]*Aggregate, len(r.HeadAggs))
			copy(nr.HeadAggs, r.HeadAggs)
		}
		np.Rules = append(np.Rules, nr)
	}
	return np
}

// String renders the whole program, one rule per line.
func (p *Program) String() string {
	var b strings.Builder
	for k := range p.Base {
		// deterministic order not needed for debugging output; sort anyway
		_ = k
	}
	var baseKeys []string
	for k, v := range p.Base {
		if v {
			baseKeys = append(baseKeys, k)
		}
	}
	sortStrings(baseKeys)
	for _, k := range baseKeys {
		fmt.Fprintf(&b, ".base %s.\n", k)
	}
	var winKeys []string
	for k := range p.Windows {
		winKeys = append(winKeys, k)
	}
	sortStrings(winKeys)
	for _, k := range winKeys {
		fmt.Fprintf(&b, ".window %s %d.\n", k, p.Windows[k])
	}
	var plKeys []string
	for k := range p.Placements {
		plKeys = append(plKeys, k)
	}
	sortStrings(plKeys)
	for _, k := range plKeys {
		pl := p.Placements[k]
		if pl.Hops > 0 {
			fmt.Fprintf(&b, ".store %s at %d hops %d.\n", k, pl.Arg, pl.Hops)
		} else {
			fmt.Fprintf(&b, ".store %s at %d.\n", k, pl.Arg)
		}
	}
	for _, q := range p.Queries {
		fmt.Fprintf(&b, ".query %s.\n", q)
	}
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
