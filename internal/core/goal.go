package core

import (
	"strconv"
	"strings"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/parser"
	"repro/internal/datalog/unify"
)

// ParseGoal parses a point-query goal such as "path(n0, X)" (trailing
// dot optional) and validates it against prog: the goal must be a
// single positive relational literal over a derived predicate of the
// right arity. It is the shared validation front door of Cluster.Query
// and the serving layer (internal/serve), so a goal rejected at the
// REPL is rejected with the same typed error over the wire.
//
// Failures wrap the validation sentinels: ErrBadGoal (not a plain
// positive literal), ErrBasePredicate, ErrArity, ErrUnknownPredicate.
func ParseGoal(prog *ast.Program, goal string) (ast.Literal, error) {
	src := strings.TrimSpace(goal)
	if !strings.HasSuffix(src, ".") {
		src += "."
	}
	r, err := parser.ParseRule(src)
	if err != nil {
		return ast.Literal{}, validationErrorf(ErrBadGoal, "core: goal %q: %v", goal, err)
	}
	if len(r.Body) != 0 || r.HasAggregates() {
		return ast.Literal{}, validationErrorf(ErrBadGoal, "core: goal %q must be a single literal, not a rule", goal)
	}
	lit := r.Head
	if lit.Negated || lit.Builtin {
		return ast.Literal{}, validationErrorf(ErrBadGoal, "core: goal %q must be a positive relational literal", goal)
	}
	key := lit.PredKey()
	if prog.IsDerived(key) {
		return lit, nil
	}
	known := KnownPredKeys(prog) // only a rejection needs the full set
	if known[key] {
		// Mentioned but not derived: declared .base or an undeclared
		// extensional predicate appearing in rule bodies.
		return ast.Literal{}, validationErrorf(ErrBasePredicate, "core: goal %s: %s is a base predicate (inject base facts; query derived ones)", goal, key)
	}
	// Unknown as written: distinguish a wrong arity from a predicate
	// the program never mentions, mirroring validateInject.
	name := lit.Predicate + "/"
	for p := range known {
		if len(p) > len(name) && p[:len(name)] == name {
			return ast.Literal{}, validationErrorf(ErrArity, "core: goal %s: arity mismatch (program declares %s, got %s)", goal, p, key)
		}
	}
	return ast.Literal{}, validationErrorf(ErrUnknownPredicate, "core: goal %s: predicate %s not mentioned by the program", goal, key)
}

// KnownPredKeys collects every predicate key the program mentions:
// declared base predicates, rule heads, and relational body literals.
func KnownPredKeys(prog *ast.Program) map[string]bool {
	seen := make(map[string]bool)
	for k := range prog.Base {
		seen[k] = true
	}
	for _, r := range prog.Rules {
		seen[r.Head.PredKey()] = true
		for _, l := range r.Body {
			if !l.Builtin {
				seen[l.PredKey()] = true
			}
		}
	}
	return seen
}

// MatchGoal filters tuples to those the goal literal matches: ground
// goal arguments must be equal, variables bind (consistently — a
// repeated variable must match equal arguments). Input order is
// preserved.
func MatchGoal(goal ast.Literal, tuples []eval.Tuple) []eval.Tuple {
	out := make([]eval.Tuple, 0, len(tuples))
	for _, t := range tuples {
		if len(t.Args) != len(goal.Args) {
			continue
		}
		if _, ok := unify.MatchArgs(goal.Args, t.Args, unify.Subst{}); ok {
			out = append(out, t)
		}
	}
	return out
}

// CanonicalGoal returns a canonical identity string for a goal
// literal: ground arguments render as their tuple-key encoding and
// variables are renamed by first occurrence, so "path(n0, X)" and
// "path(n0, Y)" share an identity but "p(X, X)" and "p(X, Y)" do not.
// The serving layer uses it as the result-cache key.
func CanonicalGoal(goal ast.Literal) string {
	names := make(map[string]int)
	var b []byte
	b = append(b, goal.PredKey()...)
	b = append(b, '|')
	for i, a := range goal.Args {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCanonicalTerm(b, a, names)
	}
	return string(b)
}

func appendCanonicalTerm(b []byte, t ast.Term, names map[string]int) []byte {
	switch t.Kind {
	case ast.KindVar:
		id, ok := names[t.Str]
		if !ok {
			id = len(names)
			names[t.Str] = id
		}
		b = append(b, '$')
		return strconv.AppendInt(b, int64(id), 10)
	case ast.KindCompound:
		b = append(b, t.Str...)
		b = append(b, '(')
		for i, a := range t.Args {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendCanonicalTerm(b, a, names)
		}
		return append(b, ')')
	default:
		return t.AppendKey(b)
	}
}
