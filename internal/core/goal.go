package core

import (
	"fmt"
	"slices"
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
// right arity. It is the validation front door of the centralized REPL;
// Engine.ParseGoal applies the same checks to the engine's program, so a
// goal rejected at the REPL is rejected with the same typed error over
// the wire.
//
// Failures wrap the validation sentinels: ErrBadGoal (not a plain
// positive literal), ErrBasePredicate, ErrArity, ErrUnknownPredicate.
func ParseGoal(prog *ast.Program, goal string) (ast.Literal, error) {
	if lit, err := parser.ParseLiteral(strings.TrimSpace(goal)); err == nil && prog.IsDerived(lit.PredKey()) {
		return lit, nil // only a refusal needs the records, to say why
	}
	return parseGoal(newPreds(prog, 0), goal)
}

// ParseGoal parses and validates a goal as the package's ParseGoal does,
// against the predicate records New built for the engine's program:
// Cluster.Query and the serving layer parse goals here.
func (e *Engine) ParseGoal(goal string) (ast.Literal, error) { return parseGoal(e.preds, goal) }

func parseGoal(preds map[string]*pred, goal string) (ast.Literal, error) {
	lit, err := parser.ParseLiteral(strings.TrimSpace(goal))
	if err != nil {
		return ast.Literal{}, validationErrorf(ErrBadGoal, "core: goal %q: %v", goal, err)
	}
	p, err := classify(preds, lit.PredKey())
	if err != nil {
		return ast.Literal{}, fmt.Errorf("core: goal %s: %w", goal, err)
	}
	if !p.derived {
		// Mentioned but not derived: declared .base, an undeclared
		// extensional predicate appearing in rule bodies, or one only a
		// declaration names.
		return ast.Literal{}, validationErrorf(ErrBasePredicate, "core: goal %s: %s is a base predicate (inject base facts; query derived ones)", goal, p.key)
	}
	return lit, nil
}

// KnownPredKeys collects every predicate key the program mentions:
// rule heads, relational body literals, and the predicates its .base,
// .window, .store and .query declarations name. Injection, goals and
// provenance queries all check against this one set.
func KnownPredKeys(prog *ast.Program) map[string]bool {
	seen := make(map[string]bool)
	for k := range prog.Base {
		seen[k] = true
	}
	for k := range prog.Windows {
		seen[k] = true
	}
	for k := range prog.Placements {
		seen[k] = true
	}
	for _, k := range prog.Queries {
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
// preserved. It matches with a unify.Pattern, as Database.Match does,
// allocating no binding per tuple.
func MatchGoal(goal ast.Literal, tuples []eval.Tuple) []eval.Tuple {
	pat := unify.NewPattern(goal.Args)
	out := make([]eval.Tuple, 0, len(tuples))
	for _, t := range tuples {
		if pat.Match(t.Args) {
			out = append(out, t)
		}
	}
	return out
}

// AppendCanonicalGoal appends a canonical identity for a goal literal
// to b: ground arguments render as their tuple-key encoding and
// variables are renamed by first occurrence, so "path(n0, X)" and
// "path(n0, Y)" share an identity but "p(X, X)" and "p(X, Y)" do not.
// The serving layer renders it into a stack buffer as the result-
// cache key, so a cache hit builds no key string. Variables are renamed
// from a table on the stack while a goal has few, and through a map
// past that, so the cost stays linear in the goal's size.
func AppendCanonicalGoal(b []byte, goal ast.Literal) []byte {
	var nameArr [8]string
	vars := varIDs{names: nameArr[:0]}
	b = append(b, goal.Predicate...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(len(goal.Args)), 10)
	b = append(b, '|')
	for i, a := range goal.Args {
		if i > 0 {
			b = append(b, ',')
		}
		b, vars = appendCanonicalTerm(b, a, vars)
	}
	return b
}

// varIDs numbers a goal's variables by first occurrence: a variable's
// id is its index in names.
type varIDs struct {
	names []string
	index map[string]int // name -> id; nil while names fits its table
}

// appendCanonicalTerm appends t with its variables numbered, returning
// vars with t's new ones added.
func appendCanonicalTerm(b []byte, t ast.Term, vars varIDs) ([]byte, varIDs) {
	switch t.Kind {
	case ast.KindVar:
		id := -1
		if vars.index != nil {
			if i, ok := vars.index[t.Str]; ok {
				id = i
			}
		} else {
			id = slices.Index(vars.names, t.Str)
		}
		if id < 0 {
			id, vars.names = len(vars.names), append(vars.names, t.Str)
			if vars.index != nil {
				vars.index[t.Str] = id
			} else if len(vars.names) > 8 {
				vars.index = make(map[string]int, 2*len(vars.names))
				for i, name := range vars.names {
					vars.index[name] = i
				}
			}
		}
		b = append(b, '$')
		return strconv.AppendInt(b, int64(id), 10), vars
	case ast.KindCompound:
		b = append(b, t.Str...)
		b = append(b, '(')
		for i, a := range t.Args {
			if i > 0 {
				b = append(b, ',')
			}
			b, vars = appendCanonicalTerm(b, a, vars)
		}
		return append(b, ')'), vars
	default:
		return t.AppendKey(b), vars
	}
}
