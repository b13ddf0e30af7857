package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/parser"
	"repro/internal/datalog/unify"
)

// The goal path before it parsed goals without a program: ParseGoal by
// way of parser.ParseRule, the match by way of a persistent unify.Subst
// and the canonical key by way of a name map. They are the oracles the
// program-free parse, the register match and the append form are held
// to.

func parseGoalRef(prog *ast.Program, goal string) (ast.Literal, error) {
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
	known := KnownPredKeys(prog)
	if known[key] {
		return ast.Literal{}, validationErrorf(ErrBasePredicate, "core: goal %s: %s is a base predicate", goal, key)
	}
	name := lit.Predicate + "/"
	for p := range known {
		if strings.HasPrefix(p, name) && len(p) > len(name) {
			return ast.Literal{}, validationErrorf(ErrArity, "core: goal %s: arity mismatch", goal)
		}
	}
	return ast.Literal{}, validationErrorf(ErrUnknownPredicate, "core: goal %s: predicate %s not mentioned", goal, key)
}

func matchGoalRef(goal ast.Literal, tuples []eval.Tuple) []eval.Tuple {
	var out []eval.Tuple
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

func canonicalGoalRef(goal ast.Literal) string {
	names := make(map[string]int)
	var term func(b []byte, t ast.Term) []byte
	term = func(b []byte, t ast.Term) []byte {
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
				b = term(b, a)
			}
			return append(b, ')')
		default:
			return t.AppendKey(b)
		}
	}
	b := append([]byte(goal.PredKey()), '|')
	for i, a := range goal.Args {
		if i > 0 {
			b = append(b, ',')
		}
		b = term(b, a)
	}
	return string(b)
}

// refSrc derives one predicate per arity 0–5 from base streams, so
// generated goals of every arity validate.
const refSrc = `
.base e/2.
.base f/5.
d0 :- e(X, Y).
d1(X) :- e(X, Y).
d2(X, Y) :- e(X, Y).
d3(X, Y, Z) :- f(X, Y, Z, U, V).
d4(X, Y, Z, U) :- f(X, Y, Z, U, V).
d5(X, Y, Z, U, V) :- f(X, Y, Z, U, V).
`

// refValues is the ground domain of the reference tuples and of the
// constants goals name: atoms, numbers, a string, compounds and lists.
var refValues = []string{"a", "b", "1", "2", "2.5", `"s"`, "f(a)", "f(b)", "g(a, 1)", "[a, b]", "[b]", "[]"}

// genGoal writes a random goal over refSrc's derived predicates:
// constants, variables drawn from a pool of three (so they repeat), _,
// and compounds and lists with variables inside.
func genGoal(r *rand.Rand) string {
	n := r.Intn(6)
	var b strings.Builder
	b.WriteString("d" + strconv.Itoa(n))
	vars := []string{"X", "Y", "Z"}
	arg := func() string {
		switch k := r.Intn(10); {
		case k < 3:
			return refValues[r.Intn(len(refValues))]
		case k < 6:
			return vars[r.Intn(len(vars))]
		case k < 7:
			return "_"
		case k < 8:
			return "f(" + vars[r.Intn(len(vars))] + ")"
		case k < 9:
			return "g(" + vars[r.Intn(len(vars))] + ", " + []string{"1", "_", "Y"}[r.Intn(3)] + ")"
		default:
			return "[" + vars[r.Intn(len(vars))] + " | " + []string{"T", "[b]", "[]"}[r.Intn(3)] + "]"
		}
	}
	if n > 0 {
		b.WriteByte('(')
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(arg())
		}
		b.WriteByte(')')
	}
	if r.Intn(3) == 0 {
		b.WriteString(" .")
	}
	return b.String()
}

// refTuples fills every derived predicate of refSrc with tuples over
// refValues, a few with equal arguments so repeated variables match.
func refTuples(t *testing.T, r *rand.Rand) map[string][]eval.Tuple {
	vals := make([]ast.Term, len(refValues))
	for i, v := range refValues {
		term, err := parser.ParseTerm(v)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = term
	}
	out := map[string][]eval.Tuple{}
	for n := 0; n <= 5; n++ {
		seen := map[string]bool{}
		for k := 0; k < 60; k++ {
			args := make([]ast.Term, n)
			for i := range args {
				args[i] = vals[r.Intn(len(vals))]
				if i > 0 && r.Intn(3) == 0 {
					args[i] = args[r.Intn(i)]
				}
			}
			tup := eval.NewTuple("d"+strconv.Itoa(n), args...).Keyed()
			if !seen[tup.Key()] {
				seen[tup.Key()] = true
				out[tup.Pred] = append(out[tup.Pred], tup)
			}
		}
	}
	return out
}

var goalSentinels = []error{ErrBadGoal, ErrBasePredicate, ErrArity, ErrUnknownPredicate}

func sameSentinel(a, b error) bool {
	for _, s := range goalSentinels {
		if errors.Is(a, s) != errors.Is(b, s) {
			return false
		}
	}
	return true
}

// refHandGoals are the hand cases of TestParseGoalTypedErrors and
// TestMatchGoalBindingSemantics, plus what the implied '.' of a
// dotless goal used to meet: comments, NUL bytes, extra dots, bodies,
// aggregates, built-ins, directives, trailing input.
var refHandGoals = []string{
	"path(n0, X)", "path(n0, X).", "edge(n0, X)", "path(X)", "ghost(X)",
	"path(X, Y) :- edge(X, Y)", "NOT path(n0, X)", "path(n0, X",
	"path(a, X)", "path(X, Y)", "path(X, X)", "path(a, c)", "path(b, c)",
	"path(a, X) % note", "path(a, X). % note", "path(a, X) // note.",
	"path(a, X) /* c */", "path(a, X)\x00", "path(a, X).\x00junk",
	"path(a, X)..", "path(a, X). .", "path(a, X). path(b, X)", "  path(a, X)  .  ",
	"\n\npath(a, X", "path(min<X>, Y)", "X < 3", "member(X, Y)", "even(X)", ".base path/2",
	".", "", "path(a, \"unterminated", "path(a, \"x\\", "path(a, _)", "path(_, _)",
	"path([a | T], f(X, _))", "path(a, X) :- ", "path(\"\\n\\x41\", X)",
}

// The program-free goal path answers every goal as the ParseRule path
// did: an equal literal or the same sentinel, a byte-identical
// canonical key, and the same tuples from MatchGoal and Database.Match.
func TestGoalPathMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	prog := mustParse(t, goalSrc+refSrc)
	tuples := refTuples(t, r)
	for _, tup := range []eval.Tuple{
		eval.NewTuple("path", ast.Symbol("a"), ast.Symbol("b")),
		eval.NewTuple("path", ast.Symbol("a"), ast.Symbol("a")),
		eval.NewTuple("path", ast.Symbol("b"), ast.Symbol("c")),
	} {
		tuples[tup.Pred] = append(tuples[tup.Pred], tup.Keyed())
	}
	db := eval.NewDatabase()
	for _, ts := range tuples {
		for _, tup := range ts {
			db.Insert(tup)
		}
	}
	goals := append([]string(nil), refHandGoals...)
	for i := 0; i < 3000; i++ {
		g := genGoal(r)
		if i%10 == 9 { // and a mangled one: a byte dropped
			k := r.Intn(len(g))
			g = g[:k] + g[k+1:]
		}
		goals = append(goals, g)
	}
	accepted, matched := 0, 0
	for _, g := range goals {
		got, err := ParseGoal(prog, g)
		want, werr := parseGoalRef(prog, g)
		if (err == nil) != (werr == nil) || !sameSentinel(err, werr) {
			t.Fatalf("ParseGoal(%q) = %v, reference %v", g, err, werr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseGoal(%q) = %#v, reference %#v", g, got, want)
		}
		if c, w := CanonicalGoal(got), canonicalGoalRef(want); c != w {
			t.Fatalf("CanonicalGoal(%q) = %q, reference %q", g, c, w)
		}
		checkMatch(t, g, got, tuples[got.PredKey()], db)
		accepted, matched = accepted+1, matched+len(db.Match(got))
	}
	t.Logf("%d goals, %d accepted, %d answers", len(goals), accepted, matched)
	if matched == 0 {
		t.Fatal("no generated goal matched a tuple: the comparison is vacuous")
	}
}

func checkMatch(t *testing.T, name string, goal ast.Literal, tuples []eval.Tuple, db *eval.Database) {
	t.Helper()
	want := matchGoalRef(goal, tuples)
	if got := MatchGoal(goal, tuples); !slices.EqualFunc(got, want, eval.Tuple.Equal) {
		t.Fatalf("MatchGoal(%s) = %v, reference %v", name, got, want)
	}
	slices.SortFunc(want, func(a, b eval.Tuple) int { return strings.Compare(a.Key(), b.Key()) })
	if got := db.Match(goal); !slices.EqualFunc(got, want, eval.Tuple.Equal) {
		t.Fatalf("Database.Match(%s) = %v, reference %v", name, got, want)
	}
}

// Literals built by hand, not by ParseGoal, match as the Subst matcher
// matches them: "_" is an ordinary name (so two of them must agree),
// a variable may sit inside a compound, and a goal whose repeated
// variables outnumber a register file's 64 slots still matches exactly.
func TestMatchHandBuiltLiterals(t *testing.T) {
	a, b := ast.Symbol("a"), ast.Symbol("b")
	f := func(args ...ast.Term) ast.Term { return ast.Compound("f", args...) }
	tuples := []eval.Tuple{
		eval.NewTuple("p", a, a), eval.NewTuple("p", a, b),
		eval.NewTuple("p", f(a), a), eval.NewTuple("p", f(b), a), eval.NewTuple("p", f(a, b), b),
	}
	db := eval.NewDatabase()
	for _, tup := range tuples {
		db.Insert(tup)
	}
	for _, goal := range []ast.Literal{
		ast.Lit("p", ast.Var("_"), ast.Var("_")),
		ast.Lit("p", ast.Var("X"), ast.Var("Y")),
		ast.Lit("p", f(ast.Var("X")), ast.Var("X")),
		ast.Lit("p", f(ast.Var("X"), ast.Var("Y")), ast.Var("Y")),
		ast.Lit("p", f(ast.Var("_")), ast.Var("_")),
		ast.Lit("p", ast.Var("X"), ast.Var("X")),
		ast.Lit("p", a, ast.Var("X")),
		ast.Lit("p"),
	} {
		checkMatch(t, goal.String(), goal, tuples, db)
	}

	// 70 variables, each twice: 140 arguments.
	const n = 70
	args, same, diff := make([]ast.Term, 2*n), make([]ast.Term, 2*n), make([]ast.Term, 2*n)
	for i := 0; i < n; i++ {
		v := ast.Var(fmt.Sprintf("V%d", i))
		args[i], args[n+i] = v, v
		same[i], same[n+i] = ast.Int64(int64(i)), ast.Int64(int64(i))
		diff[i], diff[n+i] = ast.Int64(int64(i)), ast.Int64(int64(i))
	}
	diff[2*n-1] = ast.Int64(-1) // only the 70th variable disagrees
	wide := []eval.Tuple{eval.NewTuple("w", same...), eval.NewTuple("w", diff...)}
	wdb := eval.NewDatabase()
	for _, tup := range wide {
		wdb.Insert(tup)
	}
	goal := ast.Lit("w", args...)
	checkMatch(t, "w(V0..V69, V0..V69)", goal, wide, wdb)
	if got := MatchGoal(goal, wide); len(got) != 1 {
		t.Fatalf("the 140-argument goal matched %d tuples, want 1", len(got))
	}

	// The same variables inside compounds, met again in reverse order.
	rev, up, down := make([]ast.Term, n), make([]ast.Term, n), make([]ast.Term, n)
	for i := 0; i < n; i++ {
		rev[i] = args[n-1-i]
		up[i], down[i] = ast.Int64(int64(i)), ast.Int64(int64(n-1-i))
	}
	bad := slices.Clone(down)
	bad[0] = ast.Int64(-1) // the last variable met disagrees
	nested := []eval.Tuple{
		eval.NewTuple("v", f(up...), f(down...)), eval.NewTuple("v", f(up...), f(bad...)),
		eval.NewTuple("v", f(up...), f(up...)),
	}
	ndb := eval.NewDatabase()
	for _, tup := range nested {
		ndb.Insert(tup)
	}
	goal = ast.Lit("v", f(args[:n]...), f(rev...))
	checkMatch(t, "v(f(V0..V69), f(V69..V0))", goal, nested, ndb)
	if got := MatchGoal(goal, nested); len(got) != 1 {
		t.Fatalf("the nested 70-variable goal matched %d tuples, want 1", len(got))
	}
	// Past its stack table the canonical key numbers through a map.
	for _, g := range []ast.Literal{goal, ast.Lit("w", args...)} {
		if c, w := CanonicalGoal(g), canonicalGoalRef(g); c != w {
			t.Fatalf("CanonicalGoal(%s) = %q, reference %q", g, c, w)
		}
	}
}

// A goal is parsed without a program: one allocation, its argument
// slice; the canonical key renders into a caller's buffer with none.
func TestGoalPathAllocs(t *testing.T) {
	prog := mustParse(t, goalSrc)
	for _, goal := range []string{"path(n0, X)", "path(X, n1)."} {
		var lit ast.Literal
		parse := testing.AllocsPerRun(100, func() {
			var err error
			if lit, err = ParseGoal(prog, goal); err != nil {
				t.Fatal(err)
			}
		})
		var buf [64]byte
		key := testing.AllocsPerRun(100, func() { AppendCanonicalGoal(buf[:0], lit) })
		if parse != 1 || key != 0 {
			t.Errorf("%s: ParseGoal allocates %.1f objects, AppendCanonicalGoal %.1f; want 1 and 0", goal, parse, key)
		}
	}
}
