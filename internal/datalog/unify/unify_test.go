package unify

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/datalog/ast"
)

func TestBindLookup(t *testing.T) {
	var s Subst
	if _, ok := s.Lookup("X"); ok {
		t.Error("empty subst has no bindings")
	}
	s2 := s.Bind("X", ast.Int64(1))
	if v, ok := s2.Lookup("X"); !ok || v.Int != 1 {
		t.Errorf("Lookup after Bind = %v, %v", v, ok)
	}
	// The parent substitution must be unaffected (persistence).
	if _, ok := s.Lookup("X"); ok {
		t.Error("Bind mutated parent substitution")
	}
}

func TestApplyRecursive(t *testing.T) {
	s := Subst{}.Bind("X", ast.Var("Y")).Bind("Y", ast.Int64(7))
	got := s.Apply(ast.Compound("f", ast.Var("X"), ast.Var("Z")))
	want := ast.Compound("f", ast.Int64(7), ast.Var("Z"))
	if !got.Equal(want) {
		t.Errorf("Apply = %v, want %v", got, want)
	}
}

func TestUnifySimple(t *testing.T) {
	s, ok := Unify(ast.Var("X"), ast.Int64(3), Subst{})
	if !ok {
		t.Fatal("unify failed")
	}
	if v, _ := s.Lookup("X"); v.Int != 3 {
		t.Errorf("X = %v", v)
	}
}

func TestUnifyCompound(t *testing.T) {
	// f(X, g(X)) = f(2, g(Y)) -> X=2, Y=2
	a := ast.Compound("f", ast.Var("X"), ast.Compound("g", ast.Var("X")))
	b := ast.Compound("f", ast.Int64(2), ast.Compound("g", ast.Var("Y")))
	s, ok := Unify(a, b, Subst{})
	if !ok {
		t.Fatal("unify failed")
	}
	if got := s.Apply(ast.Var("Y")); got.Int != 2 {
		t.Errorf("Y = %v", got)
	}
}

func TestUnifyOccursCheck(t *testing.T) {
	// X = f(X) must fail.
	_, ok := Unify(ast.Var("X"), ast.Compound("f", ast.Var("X")), Subst{})
	if ok {
		t.Error("occurs check violated")
	}
}

func TestUnifyMismatch(t *testing.T) {
	cases := [][2]ast.Term{
		{ast.Int64(1), ast.Int64(2)},
		{ast.Symbol("a"), ast.String_("a")},
		{ast.Compound("f", ast.Int64(1)), ast.Compound("g", ast.Int64(1))},
		{ast.Compound("f", ast.Int64(1)), ast.Compound("f", ast.Int64(1), ast.Int64(2))},
	}
	for _, c := range cases {
		if _, ok := Unify(c[0], c[1], Subst{}); ok {
			t.Errorf("Unify(%v, %v) should fail", c[0], c[1])
		}
	}
}

func TestUnifySameVar(t *testing.T) {
	s, ok := Unify(ast.Var("X"), ast.Var("X"), Subst{})
	if !ok {
		t.Fatal("X=X should succeed")
	}
	if s.Len() != 0 {
		t.Errorf("X=X should not bind, got %v", s)
	}
}

func TestMatchGround(t *testing.T) {
	pat := ast.Compound("veh", ast.Symbol("enemy"), ast.Var("L"), ast.Var("T"))
	val := ast.Compound("veh", ast.Symbol("enemy"), ast.Compound("loc", ast.Int64(3), ast.Int64(4)), ast.Int64(10))
	s, ok := Match(pat, val, Subst{})
	if !ok {
		t.Fatal("match failed")
	}
	l, _ := s.Lookup("L")
	if l.String() != "loc(3, 4)" {
		t.Errorf("L = %v", l)
	}
}

func TestMatchRespectingBindings(t *testing.T) {
	s := Subst{}.Bind("T", ast.Int64(10))
	pat := ast.Compound("veh", ast.Var("T"))
	if _, ok := Match(pat, ast.Compound("veh", ast.Int64(11)), s); ok {
		t.Error("match should fail against conflicting binding")
	}
	if _, ok := Match(pat, ast.Compound("veh", ast.Int64(10)), s); !ok {
		t.Error("match should succeed with matching binding")
	}
}

func TestMatchFunctorMismatch(t *testing.T) {
	if _, ok := Match(ast.Compound("f", ast.Var("X")), ast.Compound("g", ast.Int64(1)), Subst{}); ok {
		t.Error("functor mismatch should fail")
	}
}

func TestMatchArgs(t *testing.T) {
	pats := []ast.Term{ast.Var("X"), ast.Var("X")}
	vals := []ast.Term{ast.Int64(1), ast.Int64(1)}
	if _, ok := MatchArgs(pats, vals, Subst{}); !ok {
		t.Error("repeated-var match should succeed on equal values")
	}
	vals2 := []ast.Term{ast.Int64(1), ast.Int64(2)}
	if _, ok := MatchArgs(pats, vals2, Subst{}); ok {
		t.Error("repeated-var match should fail on unequal values")
	}
	if _, ok := MatchArgs(pats, vals[:1], Subst{}); ok {
		t.Error("length mismatch should fail")
	}
}

func TestSubstString(t *testing.T) {
	s := Subst{}.Bind("B", ast.Int64(2)).Bind("A", ast.Int64(1))
	if got := s.String(); got != "{A=1, B=2}" {
		t.Errorf("String = %q", got)
	}
}

func TestNamesDeduplicated(t *testing.T) {
	s := Subst{}.Bind("X", ast.Int64(1)).Bind("X", ast.Int64(1))
	if got := s.Names(); !reflect.DeepEqual(got, []string{"X"}) {
		t.Errorf("Names = %v", got)
	}
}

// --- property tests ---

func randGroundTerm(r *rand.Rand, depth int) ast.Term {
	switch r.Intn(5) {
	case 0:
		return ast.Int64(int64(r.Intn(20)))
	case 1:
		return ast.Float64(float64(r.Intn(10)) / 2)
	case 2:
		return ast.Symbol(string(rune('a' + r.Intn(4))))
	case 3:
		return ast.String_(string(rune('s' + r.Intn(3))))
	default:
		if depth <= 0 {
			return ast.Int64(int64(r.Intn(5)))
		}
		n := 1 + r.Intn(2)
		args := make([]ast.Term, n)
		for i := range args {
			args[i] = randGroundTerm(r, depth-1)
		}
		return ast.Compound(string(rune('f'+r.Intn(2))), args...)
	}
}

// abstract replaces random subterms of t with variables, producing a
// pattern that matches t.
func abstract(r *rand.Rand, t ast.Term, next *int) ast.Term {
	if r.Intn(4) == 0 {
		*next++
		return ast.Var("V" + string(rune('0'+*next%10)))
	}
	if t.Kind == ast.KindCompound {
		args := make([]ast.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = abstract(r, a, next)
		}
		return ast.Compound(t.Str, args...)
	}
	return t
}

type groundGen struct{ T ast.Term }

func (groundGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(groundGen{T: randGroundTerm(r, 3)})
}

// A pattern abstracted from a ground term must match it, and applying the
// resulting substitution to the pattern must reproduce the term — unless
// the same variable was introduced at two positions with different
// subterms, in which case Match correctly fails.
func TestQuickAbstractedPatternMatches(t *testing.T) {
	f := func(g groundGen, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 0
		pat := abstract(r, g.T, &n)
		s, ok := Match(pat, g.T, Subst{})
		if !ok {
			// Failure is only legitimate if a repeated variable got
			// conflicting values; re-check by renaming apart.
			i := 0
			distinct := pat.RenameVars(func(string) string {
				i++
				return "W" + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10))
			})
			_, ok2 := Match(distinct, g.T, Subst{})
			return ok2
		}
		return s.Apply(pat).Equal(g.T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Unification of a ground term with itself always succeeds with an empty
// substitution effect.
func TestQuickUnifyGroundReflexive(t *testing.T) {
	f := func(g groundGen) bool {
		_, ok := Unify(g.T, g.T, Subst{})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Unify is symmetric in success for ground pairs.
func TestQuickUnifyGroundSymmetric(t *testing.T) {
	f := func(a, b groundGen) bool {
		_, ok1 := Unify(a.T, b.T, Subst{})
		_, ok2 := Unify(b.T, a.T, Subst{})
		return ok1 == ok2 && ok1 == a.T.Equal(b.T)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Slots is checked against Match/MatchArgs on generated input in package
// builtin (slots_test.go); here, the parts that have no symbolic twin.
func TestSlots(t *testing.T) {
	rule, n := (&ast.Rule{
		Head: ast.Lit("h", ast.Var("Y"), ast.Compound("+", ast.Var("D"), ast.Int64(1))),
		Body: []ast.Literal{ast.Lit("p", ast.Var("X"), ast.Compound("pr", ast.Var("Y"), ast.Var("X")))},
	}).NumberVars()
	if n != 3 || rule.String() != "h(Y, (D + 1)) :- p(X, pr(Y, X))." {
		t.Fatalf("NumberVars: %d slots, %s", n, rule)
	}
	if m := SlotMask(rule.Body[0].Args...); m != 0b101 { // Y is slot 0, D slot 1, X slot 2
		t.Errorf("SlotMask = %b", m)
	}
	b := Slots{Regs: make([]ast.Term, n)}
	vals := []ast.Term{ast.Int64(7), ast.Compound("pr", ast.Symbol("a"), ast.Int64(7))}
	if !b.MatchArgs(rule.Body[0].Args, vals) || b.Set != 0b101 {
		t.Fatalf("match failed or bound %b", b.Set)
	}
	if got := b.Apply(rule.Head.Args[1]); got.String() != "(D + 1)" {
		t.Errorf("Apply left D alone? %s", got)
	}
	if got := b.Apply(rule.Body[0].Args[1]); !got.Equal(vals[1]) {
		t.Errorf("Apply = %s", got)
	}
	// The repeated X must agree; a failed attempt is undone by restoring Set.
	b.Set = 0
	if b.MatchArgs(rule.Body[0].Args, []ast.Term{ast.Int64(7), ast.Compound("pr", ast.Symbol("a"), ast.Int64(8))}) {
		t.Error("X matched 7 and 8")
	}
	// A negative slot is a wildcard: it matches anything and binds nothing.
	b.Set = 0
	wild := ast.Term{Kind: ast.KindVar, Str: "_", Int: -1}
	if !b.MatchArgs([]ast.Term{wild, wild}, vals) || b.Set != 0 || SlotMask(wild) != 0 {
		t.Errorf("wildcard bound %b", b.Set)
	}
}
