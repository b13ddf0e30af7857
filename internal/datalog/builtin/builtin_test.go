package builtin

import (
	"errors"
	"math"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/unify"
)

func TestArithmeticEvalTerm(t *testing.T) {
	r := Default()
	cases := []struct {
		expr ast.Term
		want ast.Term
	}{
		{ast.Compound("+", ast.Int64(2), ast.Int64(3)), ast.Int64(5)},
		{ast.Compound("-", ast.Int64(2), ast.Int64(3)), ast.Int64(-1)},
		{ast.Compound("*", ast.Int64(4), ast.Int64(3)), ast.Int64(12)},
		{ast.Compound("/", ast.Int64(7), ast.Int64(2)), ast.Int64(3)},
		{ast.Compound("mod", ast.Int64(7), ast.Int64(2)), ast.Int64(1)},
		{ast.Compound("+", ast.Float64(1.5), ast.Int64(1)), ast.Float64(2.5)},
		{ast.Compound("-", ast.Int64(5)), ast.Int64(-5)},
		{ast.Compound("+", ast.Compound("*", ast.Int64(2), ast.Int64(3)), ast.Int64(1)), ast.Int64(7)},
	}
	for _, c := range cases {
		got, err := r.EvalTerm(c.expr, unify.Subst{})
		if err != nil {
			t.Errorf("EvalTerm(%v): %v", c.expr, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("EvalTerm(%v) = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestEvalTermSubstitutes(t *testing.T) {
	r := Default()
	s := unify.Subst{}.Bind("D", ast.Int64(4))
	got, err := r.EvalTerm(ast.Compound("+", ast.Var("D"), ast.Int64(1)), s)
	if err != nil || got.Int != 5 {
		t.Errorf("D+1 = %v, %v", got, err)
	}
}

func TestEvalTermLeavesDataConstructors(t *testing.T) {
	r := Default()
	lst := ast.List(ast.Int64(1), ast.Int64(2))
	got, err := r.EvalTerm(lst, unify.Subst{})
	if err != nil || !got.Equal(lst) {
		t.Errorf("list changed: %v, %v", got, err)
	}
}

func TestDivisionByZero(t *testing.T) {
	r := Default()
	if _, err := r.EvalTerm(ast.Compound("/", ast.Int64(1), ast.Int64(0)), unify.Subst{}); err == nil {
		t.Error("int division by zero should error")
	}
	if _, err := r.EvalTerm(ast.Compound("/", ast.Float64(1), ast.Float64(0)), unify.Subst{}); err == nil {
		t.Error("float division by zero should error")
	}
	if _, err := r.EvalTerm(ast.Compound("mod", ast.Int64(1), ast.Int64(0)), unify.Subst{}); err == nil {
		t.Error("mod by zero should error")
	}
}

func TestComparisons(t *testing.T) {
	r := Default()
	cases := []struct {
		pred string
		a, b ast.Term
		want bool
	}{
		{"<", ast.Int64(1), ast.Int64(2), true},
		{"<", ast.Int64(2), ast.Int64(2), false},
		{"<=", ast.Int64(2), ast.Int64(2), true},
		{">", ast.Float64(2.5), ast.Int64(2), true},
		{">=", ast.Int64(2), ast.Float64(2.0), true},
		{"==", ast.Int64(2), ast.Float64(2.0), true},
		{"!=", ast.Int64(2), ast.Int64(3), true},
		{"!=", ast.Int64(2), ast.Int64(2), false},
		{"<", ast.Symbol("a"), ast.Symbol("b"), true}, // structural order on non-numerics
	}
	for _, c := range cases {
		ok, _, err := r.Eval(ast.BuiltinLit(c.pred, c.a, c.b), unify.Subst{})
		if err != nil {
			t.Errorf("%s(%v,%v): %v", c.pred, c.a, c.b, err)
			continue
		}
		if ok != c.want {
			t.Errorf("%s(%v,%v) = %v, want %v", c.pred, c.a, c.b, ok, c.want)
		}
	}
}

func TestComparisonNotGround(t *testing.T) {
	r := Default()
	_, _, err := r.Eval(ast.BuiltinLit("<", ast.Var("X"), ast.Int64(1)), unify.Subst{})
	if !errors.Is(err, ErrNotGround) {
		t.Errorf("err = %v, want ErrNotGround", err)
	}
}

func TestEqBindsUnboundVariable(t *testing.T) {
	r := Default()
	lit := ast.BuiltinLit("=", ast.Var("D1"), ast.Compound("+", ast.Var("D"), ast.Int64(1)))
	s := unify.Subst{}.Bind("D", ast.Int64(3))
	ok, ns, err := r.Eval(lit, s)
	if err != nil || !ok {
		t.Fatalf("eval = %v, %v", ok, err)
	}
	if v, _ := ns.Lookup("D1"); v.Int != 4 {
		t.Errorf("D1 = %v", v)
	}
}

func TestEqBindsReversed(t *testing.T) {
	r := Default()
	lit := ast.BuiltinLit("=", ast.Int64(5), ast.Var("X"))
	ok, ns, err := r.Eval(lit, unify.Subst{})
	if err != nil || !ok {
		t.Fatalf("eval = %v, %v", ok, err)
	}
	if v, _ := ns.Lookup("X"); v.Int != 5 {
		t.Errorf("X = %v", v)
	}
}

func TestEqGroundComparison(t *testing.T) {
	r := Default()
	ok, _, err := r.Eval(ast.BuiltinLit("=", ast.Int64(2), ast.Float64(2.0)), unify.Subst{})
	if err != nil || !ok {
		t.Errorf("2 = 2.0 should hold: %v, %v", ok, err)
	}
	ok, _, _ = r.Eval(ast.BuiltinLit("=", ast.Int64(2), ast.Int64(3)), unify.Subst{})
	if ok {
		t.Error("2 = 3 should fail")
	}
}

func TestEqStructural(t *testing.T) {
	r := Default()
	// X = [a, b] binds X to the list.
	lit := ast.BuiltinLit("=", ast.Var("X"), ast.List(ast.Symbol("a"), ast.Symbol("b")))
	ok, ns, err := r.Eval(lit, unify.Subst{})
	if err != nil || !ok {
		t.Fatalf("eval: %v %v", ok, err)
	}
	if v, _ := ns.Lookup("X"); !v.IsList() {
		t.Errorf("X = %v", v)
	}
}

func TestNegatedBuiltin(t *testing.T) {
	r := Default()
	lit := ast.Literal{Predicate: "<", Args: []ast.Term{ast.Int64(3), ast.Int64(2)}, Builtin: true, Negated: true}
	ok, _, err := r.Eval(lit, unify.Subst{})
	if err != nil || !ok {
		t.Errorf("NOT 3<2 should hold: %v, %v", ok, err)
	}
}

func TestDistFunction(t *testing.T) {
	r := Default()
	d, err := r.EvalTerm(ast.Compound("dist",
		ast.Compound("loc", ast.Int64(0), ast.Int64(0)),
		ast.Compound("loc", ast.Int64(3), ast.Int64(4))), unify.Subst{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != ast.KindFloat || d.Float != 5 {
		t.Errorf("dist = %v", d)
	}
}

func TestDistInComparison(t *testing.T) {
	r := Default()
	lit := ast.BuiltinLit("<=", ast.Compound("dist",
		ast.Compound("loc", ast.Int64(0), ast.Int64(0)),
		ast.Compound("loc", ast.Int64(3), ast.Int64(4))), ast.Int64(5))
	ok, _, err := r.Eval(lit, unify.Subst{})
	if err != nil || !ok {
		t.Errorf("dist <= 5 should hold: %v, %v", ok, err)
	}
}

func TestClosePredicate(t *testing.T) {
	r := Default()
	rep := func(x, y, ts int64) ast.Term {
		return ast.Compound("r", ast.Int64(x), ast.Int64(y), ast.Int64(ts))
	}
	ok, _, err := r.Eval(ast.BuiltinLit("close", rep(0, 0, 1), rep(1, 1, 2)), unify.Subst{})
	if err != nil || !ok {
		t.Errorf("near consecutive reports should be close: %v %v", ok, err)
	}
	// Wrong temporal order.
	ok, _, _ = r.Eval(ast.BuiltinLit("close", rep(0, 0, 2), rep(1, 1, 1)), unify.Subst{})
	if ok {
		t.Error("reversed time order should not be close")
	}
	// Too far apart spatially.
	ok, _, _ = r.Eval(ast.BuiltinLit("close", rep(0, 0, 1), rep(9, 9, 2)), unify.Subst{})
	if ok {
		t.Error("distant reports should not be close")
	}
	// Too far apart in time.
	ok, _, _ = r.Eval(ast.BuiltinLit("close", rep(0, 0, 1), rep(1, 1, 50)), unify.Subst{})
	if ok {
		t.Error("long gap should not be close")
	}
}

func TestIsParallel(t *testing.T) {
	r := Default()
	rep := func(x, y, ts int64) ast.Term {
		return ast.Compound("r", ast.Int64(x), ast.Int64(y), ast.Int64(ts))
	}
	t1 := ast.List(rep(0, 0, 1), rep(1, 1, 2), rep(2, 2, 3))
	t2 := ast.List(rep(5, 0, 1), rep(6, 1, 2), rep(7, 2, 3))
	t3 := ast.List(rep(0, 5, 1), rep(1, 4, 2), rep(2, 3, 3)) // heading -45 deg
	ok, _, err := r.Eval(ast.BuiltinLit("isParallel", t1, t2), unify.Subst{})
	if err != nil || !ok {
		t.Errorf("parallel trajectories: %v %v", ok, err)
	}
	ok, _, _ = r.Eval(ast.BuiltinLit("isParallel", t1, t3), unify.Subst{})
	if ok {
		t.Error("perpendicular trajectories reported parallel")
	}
	// A trajectory is not parallel to itself.
	ok, _, _ = r.Eval(ast.BuiltinLit("isParallel", t1, t1), unify.Subst{})
	if ok {
		t.Error("self-parallel should be false")
	}
}

func TestListBuiltins(t *testing.T) {
	r := Default()
	l := ast.List(ast.Int64(1), ast.Int64(2), ast.Int64(3))
	n, err := r.EvalTerm(ast.Compound("len", l), unify.Subst{})
	if err != nil || n.Int != 3 {
		t.Errorf("len = %v, %v", n, err)
	}
	h, err := r.EvalTerm(ast.Compound("head", l), unify.Subst{})
	if err != nil || h.Int != 1 {
		t.Errorf("head = %v, %v", h, err)
	}
	tl, err := r.EvalTerm(ast.Compound("tail", l), unify.Subst{})
	if err != nil || tl.Int != 3 {
		t.Errorf("tail = %v, %v", tl, err)
	}
	ok, _, err := r.Eval(ast.BuiltinLit("member", ast.Int64(2), l), unify.Subst{})
	if err != nil || !ok {
		t.Errorf("member(2, [1,2,3]): %v %v", ok, err)
	}
	ok, _, _ = r.Eval(ast.BuiltinLit("member", ast.Int64(9), l), unify.Subst{})
	if ok {
		t.Error("member(9, [1,2,3]) should fail")
	}
}

func TestEvenOdd(t *testing.T) {
	r := Default()
	ok, _, _ := r.Eval(ast.BuiltinLit("even", ast.Int64(4)), unify.Subst{})
	if !ok {
		t.Error("even(4)")
	}
	ok, _, _ = r.Eval(ast.BuiltinLit("odd", ast.Int64(4)), unify.Subst{})
	if ok {
		t.Error("odd(4)")
	}
}

func TestMinMaxAbs(t *testing.T) {
	r := Default()
	v, err := r.EvalTerm(ast.Compound("min", ast.Int64(3), ast.Int64(5)), unify.Subst{})
	if err != nil || v.Int != 3 {
		t.Errorf("min = %v, %v", v, err)
	}
	v, err = r.EvalTerm(ast.Compound("max", ast.Float64(3.5), ast.Int64(5)), unify.Subst{})
	if err != nil || v.Float != 5 {
		t.Errorf("max = %v, %v", v, err)
	}
	v, err = r.EvalTerm(ast.Compound("abs", ast.Int64(-5)), unify.Subst{})
	if err != nil || v.Int != 5 {
		t.Errorf("abs = %v, %v", v, err)
	}
	v, err = r.EvalTerm(ast.Compound("abs", ast.Float64(-2.5)), unify.Subst{})
	if err != nil || v.Float != 2.5 {
		t.Errorf("abs float = %v, %v", v, err)
	}
}

func TestIsPredRecognizesOperatorsAndRegistered(t *testing.T) {
	r := Default()
	for _, op := range []string{"<", "<=", ">", ">=", "=", "==", "!=", "is"} {
		if !r.IsPred(op, 2) {
			t.Errorf("IsPred(%q, 2) = false", op)
		}
	}
	if !r.IsPred("close", 2) || !r.IsPred("member", 2) {
		t.Error("registered predicates not recognized")
	}
	if r.IsPred("veh", 4) {
		t.Error("veh/4 should not be a builtin")
	}
	if !r.IsFunc("dist", 2) {
		t.Error("dist/2 should be a function")
	}
}

func TestUserRegisteredPredicate(t *testing.T) {
	r := Default()
	r.RegisterPred("inRange", 2, func(a []ast.Term) (bool, error) {
		x, _ := a[0].Numeric()
		y, _ := a[1].Numeric()
		return math.Abs(x-y) <= 1, nil
	})
	ok, _, err := r.Eval(ast.BuiltinLit("inRange", ast.Int64(3), ast.Int64(4)), unify.Subst{})
	if err != nil || !ok {
		t.Errorf("user predicate: %v %v", ok, err)
	}
}

func TestUnknownPredicateErrors(t *testing.T) {
	r := Default()
	_, _, err := r.Eval(ast.BuiltinLit("nosuch", ast.Int64(1)), unify.Subst{})
	if err == nil {
		t.Error("unknown builtin should error")
	}
}

func TestNegatedEqDoesNotBind(t *testing.T) {
	r := Default()
	lit := ast.Literal{Predicate: "=", Args: []ast.Term{ast.Var("X"), ast.Int64(1)}, Builtin: true, Negated: true}
	// NOT (X = 1) is a test, never a binding: with X unbound it is not
	// ready (it used to "succeed" at unifying and so kill the branch).
	ok, ns, err := r.Eval(lit, unify.Subst{})
	if !errors.Is(err, ErrNotGround) || ok {
		t.Errorf("NOT X=1 with unbound X: ok=%v err=%v, want ErrNotGround", ok, err)
	}
	if _, bound := ns.Lookup("X"); bound {
		t.Error("negated literal must not export bindings")
	}
	for x, want := range map[int64]bool{1: false, 2: true} {
		ok, _, err := r.Eval(lit, unify.Subst{}.Bind("X", ast.Int64(x)))
		if err != nil || ok != want {
			t.Errorf("NOT %d=1: ok=%v err=%v, want %v", x, ok, err, want)
		}
	}
}
