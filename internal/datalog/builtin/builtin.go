// Package builtin implements the registry of built-in predicates and
// functions of the deductive language. Built-ins are always evaluated
// locally at a node (they never cause communication), per Section II-B of
// the paper ("Embedding Arithmetic Computations in Built-in Predicates").
//
// The default registry contains comparisons, arithmetic, the spatial
// helpers used by the paper's examples (dist, close, isParallel) and list
// utilities. The parser, the evaluators and the engine all use the one
// Standard registry; Default builds a fresh copy a caller may extend with
// Register*.
package builtin

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/unify"
)

// ErrNotGround is returned when a built-in is applied to arguments that
// still contain unbound variables. Evaluation strategies use it to defer
// a built-in until later subgoals bind the variables.
var ErrNotGround = errors.New("builtin: arguments not ground")

// PredFunc is a built-in predicate over ground arguments.
type PredFunc func(args []ast.Term) (bool, error)

// FuncFunc is a built-in function over ground arguments, producing a term.
type FuncFunc func(args []ast.Term) (ast.Term, error)

// Registry maps built-in predicate and function names (keyed by name and
// arity) to their implementations.
type Registry struct {
	preds map[sig]PredFunc
	funcs map[sig]FuncFunc
}

type sig struct {
	name  string
	arity int
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{preds: make(map[sig]PredFunc), funcs: make(map[sig]FuncFunc)}
}

// RegisterPred adds (or replaces) a built-in predicate.
func (r *Registry) RegisterPred(name string, arity int, f PredFunc) {
	r.preds[sig{name, arity}] = f
}

// RegisterFunc adds (or replaces) a built-in function usable inside terms.
func (r *Registry) RegisterFunc(name string, arity int, f FuncFunc) {
	r.funcs[sig{name, arity}] = f
}

// IsPred reports whether name/arity is a built-in predicate (including the
// comparison operators).
func (r *Registry) IsPred(name string, arity int) bool {
	switch name {
	case "<", "<=", ">", ">=", "=", "==", "!=", "is":
		return arity == 2
	}
	_, ok := r.preds[sig{name, arity}]
	return ok
}

// IsFunc reports whether name/arity is a built-in function.
func (r *Registry) IsFunc(name string, arity int) bool {
	_, ok := r.funcs[sig{name, arity}]
	return ok
}

// Evaluates reports whether a ground compound name/arity is reduced to a
// value (arithmetic or a registered function) rather than kept as data —
// so its arguments cannot be recovered from the result by matching.
func (r *Registry) Evaluates(name string, arity int) bool {
	return isArith(name, arity) || r.IsFunc(name, arity)
}

// EvalTerm functionally evaluates t under s: variables are substituted,
// arithmetic operators and registered functions with ground arguments are
// reduced to constants. Non-evaluable structure is left intact (data
// constructors such as lists pass through).
func (r *Registry) EvalTerm(t ast.Term, s unify.Subst) (ast.Term, error) {
	return eval(r, t, s)
}

// EvalSlots is EvalTerm for a numbered term (ast.Rule.NumberVars) over a
// register file.
func (r *Registry) EvalSlots(t ast.Term, b unify.Slots) (ast.Term, error) {
	return eval(r, t, b)
}

// eval substitutes and reduces in one pass. Arithmetic over bound scalars
// is computed on the way up without building the substituted term, so
// `D + 1` allocates nothing; only data constructors and function-call
// arguments of the result are built.
func eval[B unify.Bindings](r *Registry, t ast.Term, b B) (ast.Term, error) {
	switch t.Kind {
	case ast.KindVar:
		if t = b.Apply(t); t.Kind != ast.KindCompound {
			return t, nil
		}
		// A compound binding is fully substituted but may still hold
		// arithmetic (a Subst can bind D1 to D + 1 before D is known).
		return eval(r, t, unify.Subst{})
	case ast.KindCompound:
	default:
		return t, nil
	}
	if len(t.Args) == 2 && isArith(t.Str, 2) {
		x, err := eval(r, t.Args[0], b)
		if err != nil {
			return t, err
		}
		y, err := eval(r, t.Args[1], b)
		if err != nil {
			return t, err
		}
		if !x.Ground() || !y.Ground() {
			return ast.Compound(t.Str, x, y), nil
		}
		return applyArith(t.Str, x, y)
	}
	args := make([]ast.Term, len(t.Args))
	ground := true
	for i, a := range t.Args {
		v, err := eval(r, a, b)
		if err != nil {
			return t, err
		}
		args[i], ground = v, ground && v.Ground()
	}
	out := ast.Compound(t.Str, args...)
	if !ground {
		return out, nil
	}
	return r.apply(out)
}

// apply reduces a compound whose arguments are already ground values:
// arithmetic and registered functions evaluate, data constructors stay.
func (r *Registry) apply(t ast.Term) (ast.Term, error) {
	switch {
	case !isArith(t.Str, len(t.Args)):
		if f, ok := r.funcs[sig{t.Str, len(t.Args)}]; ok {
			return f(t.Args)
		}
		return t, nil
	case len(t.Args) == 2:
		return applyArith(t.Str, t.Args[0], t.Args[1])
	case t.Args[0].Kind == ast.KindInt:
		return ast.Int64(-t.Args[0].Int), nil
	case t.Args[0].Kind == ast.KindFloat:
		return ast.Float64(-t.Args[0].Float), nil
	}
	return ast.Term{}, fmt.Errorf("builtin: cannot negate %s", t.Args[0])
}

// isArith reports whether name/arity is a core arithmetic functor.
func isArith(name string, arity int) bool {
	switch name {
	case "-":
		return arity == 1 || arity == 2
	case "+", "*", "/", "mod":
		return arity == 2
	}
	return false
}

func applyArith(op string, x, y ast.Term) (ast.Term, error) {
	if x.Kind == ast.KindInt && y.Kind == ast.KindInt {
		switch op {
		case "+":
			return ast.Int64(x.Int + y.Int), nil
		case "-":
			return ast.Int64(x.Int - y.Int), nil
		case "*":
			return ast.Int64(x.Int * y.Int), nil
		case "/":
			if y.Int == 0 {
				return ast.Term{}, errors.New("builtin: integer division by zero")
			}
			return ast.Int64(x.Int / y.Int), nil
		case "mod":
			if y.Int == 0 {
				return ast.Term{}, errors.New("builtin: mod by zero")
			}
			return ast.Int64(x.Int % y.Int), nil
		}
	}
	xf, xok := x.Numeric()
	yf, yok := y.Numeric()
	if !xok || !yok {
		return ast.Term{}, fmt.Errorf("builtin: non-numeric operands %s %s %s", x, op, y)
	}
	switch op {
	case "+":
		return ast.Float64(xf + yf), nil
	case "-":
		return ast.Float64(xf - yf), nil
	case "*":
		return ast.Float64(xf * yf), nil
	case "/":
		if yf == 0 {
			return ast.Term{}, errors.New("builtin: division by zero")
		}
		return ast.Float64(xf / yf), nil
	case "mod":
		return ast.Float64(math.Mod(xf, yf)), nil
	}
	return ast.Term{}, fmt.Errorf("builtin: unknown operator %q", op)
}

// Eval evaluates the built-in literal l under substitution s. On success
// it returns (true, extended substitution). A positive `=`/`is` may bind
// an unbound variable on either side; everything else — a negated `=`
// included, which is a test and never a binding — requires ground
// arguments after functional evaluation and returns ErrNotGround
// otherwise. A negated literal succeeds when the positive form fails.
func (r *Registry) Eval(l ast.Literal, s unify.Subst) (bool, unify.Subst, error) {
	ok, ns, err := r.evalPositive(l, s)
	if err != nil {
		return false, s, err
	}
	if l.Negated {
		// Negated built-ins must not export bindings.
		return !ok, s, nil
	}
	return ok, ns, nil
}

func (r *Registry) evalPositive(l ast.Literal, s unify.Subst) (bool, unify.Subst, error) {
	ok, lhs, rhs, err := test(r, l, s)
	if errors.Is(err, ErrNotGround) && binds(l) {
		ns, ok := unify.Unify(lhs, rhs, s)
		return ok, ns, nil
	}
	return ok, s, err
}

// test evaluates l's arguments under b and applies its predicate to the
// values; ErrNotGround when one stays non-ground. For a comparison it
// also returns the two evaluated sides, so that `=` can go on to bind.
func test[B unify.Bindings](r *Registry, l ast.Literal, b B) (ok bool, lhs, rhs ast.Term, err error) {
	if isComparison(l) {
		if lhs, err = eval(r, l.Args[0], b); err != nil {
			return
		}
		if rhs, err = eval(r, l.Args[1], b); err != nil {
			return
		}
		if !lhs.Ground() || !rhs.Ground() {
			return false, lhs, rhs, ErrNotGround
		}
		return compare(l.Predicate, lhs, rhs), lhs, rhs, nil
	}
	f, known := r.preds[sig{l.Predicate, len(l.Args)}]
	if !known {
		err = fmt.Errorf("builtin: unknown predicate %s", l.PredKey())
		return
	}
	args := make([]ast.Term, len(l.Args))
	for i, a := range l.Args {
		if args[i], err = eval(r, a, b); err != nil {
			return
		}
		if !args[i].Ground() {
			err = ErrNotGround
			return
		}
	}
	ok, err = f(args)
	return
}

func isComparison(l ast.Literal) bool {
	switch l.Predicate {
	case "<", "<=", ">", ">=", "=", "==", "!=", "is":
		return len(l.Args) == 2
	}
	return false
}

// binds reports whether l may bind variables: a positive `=`/`is`.
func binds(l ast.Literal) bool {
	return !l.Negated && (l.Predicate == "=" || l.Predicate == "is")
}

// compare applies a comparison operator to two ground values.
func compare(op string, a, b ast.Term) bool {
	switch op {
	case "=", "is", "==":
		return numericAwareEqual(a, b)
	case "!=":
		return !numericAwareEqual(a, b)
	}
	c := compareGround(a, b)
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	}
	return c >= 0
}

// Op is a built-in literal compiled against a rule's variable slots
// (ast.Rule.NumberVars): the literal and the slots each side mentions, so
// that readiness is a mask test instead of an ErrNotGround round trip.
type Op struct {
	lit      ast.Literal
	lhs, rhs uint64 // slots of a comparison's two sides (a registered predicate: lhs holds all)
}

// Compile compiles the numbered built-in literal l.
func Compile(l ast.Literal) Op {
	if isComparison(l) {
		return Op{lit: l, lhs: unify.SlotMask(l.Args[0]), rhs: unify.SlotMask(l.Args[1])}
	}
	return Op{lit: l, lhs: unify.SlotMask(l.Args...)}
}

// Ready reports whether op can run with the slots in set bound — its
// need mask. A positive `=`/`is` needs one side bound: that side is
// evaluated and the other matched against the value as a pattern. (A rule
// where neither side ever becomes ground does not pass the safety
// analysis.) Everything else needs every slot.
func (op *Op) Ready(set uint64) bool {
	l, r := set&op.lhs == op.lhs, set&op.rhs == op.rhs
	return l && r || binds(op.lit) && (l || r)
}

// Run evaluates a Ready op over b, in place. It is Eval for slots: where
// Eval unifies the two sides of a positive `=`/`is`, here one side is a
// value and the other — bound slots substituted, ground subterms reduced
// — a pattern over the unbound slots, which matching stores into.
func (r *Registry) Run(op *Op, b *unify.Slots) (bool, error) {
	ok, lhs, rhs, err := test(r, op.lit, *b)
	if errors.Is(err, ErrNotGround) && binds(op.lit) {
		if lhs.Ground() {
			lhs, rhs = rhs, lhs
		}
		ok, err = b.Match(lhs, rhs), nil
	}
	return err == nil && ok != op.lit.Negated, err
}

func numericAwareEqual(a, b ast.Term) bool {
	if a.Equal(b) {
		return true
	}
	af, aok := a.Numeric()
	bf, bok := b.Numeric()
	return aok && bok && af == bf
}

// compareGround totally orders two ground terms, comparing numerics by
// value (so 2 < 2.5) and everything else structurally.
func compareGround(a, b ast.Term) int {
	af, aok := a.Numeric()
	bf, bok := b.Numeric()
	if aok && bok {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	return a.Compare(b)
}
