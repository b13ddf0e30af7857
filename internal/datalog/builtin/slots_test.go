package builtin

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/unify"
)

// The slot matcher (unify.Slots, Registry.Compile/Run/EvalSlots) is the
// node runtime's join path; the symbolic unify.MatchArgs + Registry.Eval
// pair stays as the centralized solver's and is the reference. These
// properties hold the two to the same answers on generated input.

// slotGen draws patterns, values and bindings over a small variable pool.
type slotGen struct {
	r    *rand.Rand
	anon int
}

var slotVars = []string{"X", "Y", "Z", "Q", "D"}

func (g *slotGen) value(depth int) ast.Term {
	switch n := g.r.Intn(9); {
	case n < 3:
		return ast.Int64(int64(g.r.Intn(4)))
	case n < 5:
		return ast.Float64(float64(g.r.Intn(8)) / 2) // 1.0 meets 1: int/float mixing
	case n < 6:
		return ast.Symbol([]string{"a", "b"}[g.r.Intn(2)])
	case depth > 1 || n < 7:
		return ast.String_("s")
	case n < 8:
		return ast.Compound("pr", g.value(depth+1), g.value(depth+1))
	}
	return ast.List(g.value(depth+1), g.value(depth+1))
}

// pattern draws a literal-argument pattern: variables (repeats are
// likely: the pool is small), anonymous variables, constants, compound
// and list patterns.
func (g *slotGen) pattern(depth int) ast.Term {
	switch n := g.r.Intn(10); {
	case n < 4:
		return ast.Var(slotVars[g.r.Intn(len(slotVars))])
	case n < 5:
		g.anon++
		return ast.Var(fmt.Sprintf("_%d", g.anon)) // as the parser renames `_`
	case depth > 1 || n < 7:
		return g.value(2)
	case n < 9:
		return ast.Compound("pr", g.pattern(depth+1), g.pattern(depth+1))
	}
	return ast.ListWithTail([]ast.Term{g.pattern(depth + 1)}, g.pattern(depth+1))
}

// expr draws one side of a comparison: arithmetic over variables and
// numbers, a pattern, a variable or a constant.
func (g *slotGen) expr(depth int) ast.Term {
	switch n := g.r.Intn(10); {
	case n < 3:
		return ast.Var(slotVars[g.r.Intn(len(slotVars))])
	case n < 5:
		return g.value(2)
	case depth < 2 && n < 8:
		op := []string{"+", "-", "*", "/", "mod"}[g.r.Intn(5)]
		return ast.Compound(op, g.expr(depth+1), g.expr(depth+1))
	case depth < 2 && n < 9:
		return ast.Compound("abs", g.expr(depth+1))
	}
	return g.pattern(depth + 1)
}

// bindSome binds a random subset of the rule's variables to values, the
// same way in both representations.
func (g *slotGen) bindSome(names []string) (unify.Subst, unify.Slots) {
	s, b := unify.Subst{}, unify.Slots{Regs: make([]ast.Term, len(names))}
	for i, n := range names {
		if g.r.Intn(2) == 0 {
			v := g.value(0)
			if g.r.Intn(2) == 0 {
				v = ast.Int64(int64(g.r.Intn(4))) // keep arithmetic mostly numeric
			}
			s = s.Bind(n, v)
			b.Regs[i], b.Set = v, b.Set|1<<uint(i)
		}
	}
	return s, b
}

// sameBindings checks that the slots and the substitution bind the same
// variables to the same ground values.
func sameBindings(t *testing.T, what string, names []string, s unify.Subst, b unify.Slots) {
	t.Helper()
	for i, n := range names {
		sv := s.Apply(ast.Var(n))
		switch bound := b.Set&(1<<uint(i)) != 0; {
		case bound != sv.Ground():
			t.Fatalf("%s: %s bound in slots: %v, symbolic value %s", what, n, bound, sv)
		case bound && !b.Regs[i].Equal(sv):
			t.Fatalf("%s: %s = %s in slots, %s symbolically", what, n, b.Regs[i], sv)
		}
	}
}

func TestSlotsMatchAgreesWithMatchArgs(t *testing.T) {
	g := &slotGen{r: rand.New(rand.NewSource(21))}
	matched := 0
	for i := 0; i < 4000; i++ {
		args := make([]ast.Term, 1+g.r.Intn(3))
		for j := range args {
			args[j] = g.pattern(0)
		}
		rule, n := (&ast.Rule{Head: ast.Lit("h"), Body: []ast.Literal{ast.Lit("p", args...)}}).NumberVars()
		names := rule.Vars()
		if len(names) != n {
			t.Fatalf("NumberVars: %d slots for %v", n, names)
		}
		s, b := g.bindSome(names)
		// Values that fit the pattern under a full assignment, sometimes
		// perturbed, so that both outcomes are common.
		full := s
		for _, name := range names {
			if _, ok := full.Lookup(name); !ok {
				full = full.Bind(name, g.value(0))
			}
		}
		vals := make([]ast.Term, len(args))
		for j, a := range args {
			if vals[j] = full.Apply(a); g.r.Intn(6) == 0 {
				vals[j] = g.value(0)
			}
		}
		what := fmt.Sprintf("p(%s) against (%s) under %s", ast.FormatTerms(args), ast.FormatTerms(vals), s)
		ns, want := unify.MatchArgs(args, vals, s)
		got := b.MatchArgs(rule.Body[0].Args, vals)
		if got != want {
			t.Fatalf("%s: slots %v, MatchArgs %v", what, got, want)
		}
		if got {
			matched++
			sameBindings(t, what, names, ns, b)
		}
	}
	if matched < 500 || matched > 3500 {
		t.Errorf("%d of 4000 matched: the generator no longer covers both outcomes", matched)
	}
}

func TestCompiledBuiltinsAgreeWithEval(t *testing.T) {
	reg := Default()
	g := &slotGen{r: rand.New(rand.NewSource(22))}
	ran, bound, deferred := 0, 0, 0
	for i := 0; i < 6000; i++ {
		lit := ast.BuiltinLit([]string{"=", "=", "is", "==", "!=", "<", "<=", ">", ">="}[g.r.Intn(9)], g.expr(0), g.expr(0))
		if g.r.Intn(8) == 0 {
			lit = ast.BuiltinLit("even", g.expr(0))
		}
		lit.Negated = g.r.Intn(4) == 0
		rule, _ := (&ast.Rule{Head: ast.Lit("h"), Body: []ast.Literal{lit}}).NumberVars()
		names := rule.Vars()
		s, b := g.bindSome(names)
		what := fmt.Sprintf("%s under %s", lit, s)

		op := Compile(rule.Body[0])
		wantOK, ns, wantErr := reg.Eval(lit, s)
		if !op.Ready(b.Set) {
			// The need mask holds the op back exactly when Eval cannot
			// decide either — except a positive `=` with something free on
			// both sides, which Eval may unify symbolically and the slots
			// leave until one side is ground.
			deferred++
			if wantErr == nil && !binds(lit) {
				t.Fatalf("%s: not ready, but Eval answered %v", what, wantOK)
			}
			continue
		}
		ran++
		gotOK, gotErr := reg.Run(&op, &b)
		if errors.Is(wantErr, ErrNotGround) {
			t.Fatalf("%s: ready, but Eval says not ground", what)
		}
		// Only the verdict is compared: the node runtime treats an
		// evaluation error as a dead branch, and matching may find a
		// mismatch before it reaches the subterm Eval fails to reduce.
		if gotOK != (wantOK && wantErr == nil) || (gotErr != nil && wantErr == nil) {
			t.Fatalf("%s: slots (%v, %v), Eval (%v, %v)", what, gotOK, gotErr, wantOK, wantErr)
		}
		if gotOK {
			if ns.Len() > s.Len() {
				bound++
			}
			sameBindings(t, what, names, ns, b)
		}
	}
	if ran < 1500 || bound < 100 || deferred < 500 {
		t.Errorf("ran %d, bound %d, deferred %d of 6000: the generator no longer covers every case", ran, bound, deferred)
	}
}

// The cases the generator is meant to reach, pinned by hand: `=` binding
// from either side, destructuring through a pattern, a ground subterm of
// the pattern side evaluated rather than matched, and int/float mixing.
func TestCompiledEqCases(t *testing.T) {
	reg := Default()
	v, add := ast.Var, func(a, b ast.Term) ast.Term { return ast.Compound("+", a, b) }
	pr := func(a, b ast.Term) ast.Term { return ast.Compound("pr", a, b) }
	cases := []struct {
		lhs, rhs ast.Term
		pre      map[string]ast.Term
		ready    bool
		ok       bool
		post     map[string]ast.Term
	}{
		{v("D1"), add(v("D"), ast.Int64(1)), map[string]ast.Term{"D": ast.Int64(3)}, true, true, map[string]ast.Term{"D1": ast.Int64(4)}},
		{add(v("D"), ast.Int64(1)), v("D1"), map[string]ast.Term{"D": ast.Int64(3)}, true, true, map[string]ast.Term{"D1": ast.Int64(4)}},
		{v("D1"), add(v("D"), ast.Int64(1)), nil, false, false, nil},
		{pr(v("X"), v("Q")), pr(v("Y"), ast.Int64(1)), map[string]ast.Term{"Y": ast.Symbol("a")}, true, true, map[string]ast.Term{"X": ast.Symbol("a"), "Q": ast.Int64(1)}},
		{pr(v("X"), add(v("D"), ast.Int64(1))), v("P"), map[string]ast.Term{"D": ast.Int64(1), "P": pr(ast.Int64(7), ast.Int64(2))}, true, true, map[string]ast.Term{"X": ast.Int64(7)}},
		{pr(v("X"), add(v("D"), ast.Int64(1))), v("P"), map[string]ast.Term{"D": ast.Int64(1), "P": pr(ast.Int64(7), ast.Int64(3))}, true, false, nil},
		{v("X"), ast.Float64(2), map[string]ast.Term{"X": ast.Int64(2)}, true, true, nil},
		{pr(v("X"), ast.Int64(2)), v("P"), map[string]ast.Term{"P": pr(ast.Int64(1), ast.Float64(2))}, true, false, nil},
	}
	for _, c := range cases {
		lit := ast.BuiltinLit("=", c.lhs, c.rhs)
		rule, n := (&ast.Rule{Head: ast.Lit("h"), Body: []ast.Literal{lit}}).NumberVars()
		b := unify.Slots{Regs: make([]ast.Term, n)}
		for i, name := range rule.Vars() {
			if val, ok := c.pre[name]; ok {
				b.Regs[i], b.Set = val, b.Set|1<<uint(i)
			}
		}
		op := Compile(rule.Body[0])
		if op.Ready(b.Set) != c.ready {
			t.Errorf("%s with %v: ready = %v", lit, c.pre, !c.ready)
			continue
		}
		if !c.ready {
			continue
		}
		if ok, err := reg.Run(&op, &b); err != nil || ok != c.ok {
			t.Errorf("%s with %v: (%v, %v), want %v", lit, c.pre, ok, err, c.ok)
			continue
		}
		for i, name := range rule.Vars() {
			if want, ok := c.post[name]; ok && (b.Set&(1<<uint(i)) == 0 || !b.Regs[i].Equal(want)) {
				t.Errorf("%s with %v: %s = %v, want %v", lit, c.pre, name, b.Regs[i], want)
			}
		}
	}
}

// EvalSlots is EvalTerm once every variable is bound; head arguments go
// through it.
func TestEvalSlotsAgreesWithEvalTerm(t *testing.T) {
	reg := Default()
	g := &slotGen{r: rand.New(rand.NewSource(23))}
	for i := 0; i < 3000; i++ {
		rule, n := (&ast.Rule{Head: ast.Lit("h", g.expr(0))}).NumberVars()
		s, b := unify.Subst{}, unify.Slots{Regs: make([]ast.Term, n), Set: 1<<uint(n) - 1}
		for j, name := range rule.Vars() {
			b.Regs[j] = ast.Int64(int64(g.r.Intn(4)))
			if g.r.Intn(4) == 0 {
				b.Regs[j] = g.value(0)
			}
			s = s.Bind(name, b.Regs[j])
		}
		want, wantErr := reg.EvalTerm(rule.Head.Args[0], s)
		got, gotErr := reg.EvalSlots(rule.Head.Args[0], b)
		if (gotErr != nil) != (wantErr != nil) || (gotErr == nil && !got.Equal(want)) {
			t.Fatalf("%s under %s: slots (%v, %v), EvalTerm (%v, %v)", rule.Head.Args[0], s, got, gotErr, want, wantErr)
		}
	}
}

// logicJ's built-ins on bound registers — the spt hot path — allocate
// nothing: no substituted term is built, no key rendered.
func TestCompiledArithmeticDoesNotAllocate(t *testing.T) {
	reg := Default()
	v := ast.Var
	rule, n := (&ast.Rule{Head: ast.Lit("jp", v("Y"), v("D1")), Body: []ast.Literal{
		ast.BuiltinLit("=", v("D1"), ast.Compound("+", v("D"), ast.Int64(1))),
		ast.BuiltinLit(">", v("D1"), v("Dp")),
	}}).NumberVars()
	eq, gt := Compile(rule.Body[0]), Compile(rule.Body[1])
	regs := make([]ast.Term, n)
	var set uint64
	for i, name := range rule.Vars() {
		switch name {
		case "D":
			regs[i], set = ast.Int64(3), set|1<<uint(i)
		case "Dp":
			regs[i], set = ast.Int64(2), set|1<<uint(i)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		b := unify.Slots{Regs: regs, Set: set}
		ok1, _ := reg.Run(&eq, &b)
		ok2, _ := reg.Run(&gt, &b)
		if !ok1 || !ok2 || !gt.Ready(b.Set) {
			t.Fatal("D1 = D + 1, D1 > Dp failed on D=3, Dp=2")
		}
	})
	if allocs != 0 {
		t.Errorf("D1 = D + 1, D1 > Dp on bound slots: %v allocs, want 0", allocs)
	}
}
