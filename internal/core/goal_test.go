package core

import (
	"errors"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/parser"
	"repro/internal/gpa"
	"repro/internal/nsim"
)

const goalSrc = `
.base edge/2.
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
.query path/2.
`

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ParseGoal must classify every rejection with the matching sentinel,
// so callers (REPL, daemon, tests) dispatch with errors.Is instead of
// message grepping.
func TestParseGoalTypedErrors(t *testing.T) {
	prog := mustParse(t, goalSrc)
	cases := []struct {
		goal string
		want error
	}{
		{"path(n0, X)", nil},
		{"path(n0, X).", nil}, // trailing dot optional
		{"edge(n0, X)", ErrBasePredicate},
		{"path(X)", ErrArity},
		{"ghost(X)", ErrUnknownPredicate},
		{"path(X, Y) :- edge(X, Y)", ErrBadGoal},
		{"NOT path(n0, X)", ErrBadGoal},
		{"path(n0, X", ErrBadGoal},
	}
	for _, c := range cases {
		_, err := ParseGoal(prog, c.goal)
		if c.want == nil {
			if err != nil {
				t.Errorf("ParseGoal(%q) = %v, want ok", c.goal, err)
			}
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("ParseGoal(%q) = %v, want errors.Is(%v)", c.goal, err, c.want)
		}
		var ve *ValidationError
		if !errors.As(err, &ve) || ve.Kind != c.want {
			t.Errorf("ParseGoal(%q): errors.As(*ValidationError) kind = %v, want %v", c.goal, err, c.want)
		}
	}
}

func TestMatchGoalBindingSemantics(t *testing.T) {
	prog := mustParse(t, goalSrc)
	tuples := []eval.Tuple{
		eval.NewTuple("path", ast.Symbol("a"), ast.Symbol("b")),
		eval.NewTuple("path", ast.Symbol("a"), ast.Symbol("a")),
		eval.NewTuple("path", ast.Symbol("b"), ast.Symbol("c")),
	}
	cases := []struct {
		goal string
		want int
	}{
		{"path(a, X)", 2},
		{"path(X, Y)", 3},
		{"path(X, X)", 1}, // repeated variable: both args equal
		{"path(a, c)", 0},
		{"path(b, c)", 1},
	}
	for _, c := range cases {
		lit, err := ParseGoal(prog, c.goal)
		if err != nil {
			t.Fatalf("ParseGoal(%q): %v", c.goal, err)
		}
		if got := MatchGoal(lit, tuples); len(got) != c.want {
			t.Errorf("MatchGoal(%q) = %v, want %d tuples", c.goal, got, c.want)
		}
	}
}

// The canonical goal identity must be variable-name-blind but
// binding-pattern-sensitive: it is the serving layer's cache key.
func TestCanonicalGoalIdentity(t *testing.T) {
	prog := mustParse(t, goalSrc)
	key := func(goal string) string {
		lit, err := ParseGoal(prog, goal)
		if err != nil {
			t.Fatalf("ParseGoal(%q): %v", goal, err)
		}
		return string(AppendCanonicalGoal(nil, lit))
	}
	if key("path(n0, X)") != key("path(n0, Y)") {
		t.Error("variable renaming must not change the goal identity")
	}
	if key("path(X, X)") == key("path(X, Y)") {
		t.Error("repeated-variable pattern must have its own identity")
	}
	if key("path(n0, X)") == key("path(n1, X)") {
		t.Error("different constants must have different identities")
	}
	if key("path(n0, X)") == key("path(X, n0)") {
		t.Error("binding position must be part of the identity")
	}
}

// The injection entry points surface the typed sentinels end to end.
func TestInjectTypedErrors(t *testing.T) {
	e, _ := buildGrid(t, 4, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 17})
	cases := []struct {
		name string
		node nsim.NodeID
		tup  eval.Tuple
		want error
	}{
		{"bad node", -1, eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)), ErrBadNode},
		{"not ground", 0, eval.NewTuple("ra", ast.Var("X"), ast.Int64(2)), ErrNotGround},
		{"derived", 0, eval.NewTuple("out", ast.Int64(1), ast.Int64(2)), ErrDerivedPredicate},
		{"unknown", 0, eval.NewTuple("nope", ast.Int64(1)), ErrUnknownPredicate},
		{"arity", 0, eval.NewTuple("ra", ast.Int64(1)), ErrArity},
	}
	for _, c := range cases {
		if err := e.Inject(c.node, c.tup); !errors.Is(err, c.want) {
			t.Errorf("%s: Inject err = %v, want errors.Is(%v)", c.name, err, c.want)
		}
		if err := e.InjectDeleteAt(10, c.node, c.tup); !errors.Is(err, c.want) {
			t.Errorf("%s: InjectDeleteAt err = %v, want errors.Is(%v)", c.name, err, c.want)
		}
	}
}

// A predicate only a declaration names is one the program mentions, to
// goals as to injection: with .window q/1 10., q(1) injects and the goal
// q(X) names a base predicate.
func TestDeclaredPredicateIsKnown(t *testing.T) {
	e, _ := buildGrid(t, 3, goalSrc+".window q/1 10.\n", Config{}, nsim.Config{Seed: 1})
	if err := e.Inject(0, eval.NewTuple("q", ast.Int64(1))); err != nil {
		t.Fatalf("Inject(q(1)) = %v", err)
	}
	if _, err := ParseGoal(e.prog, "q(X)"); !errors.Is(err, ErrBasePredicate) {
		t.Errorf("ParseGoal(q(X)) = %v, want errors.Is(ErrBasePredicate)", err)
	}
	if _, err := ParseGoal(e.prog, "q(X, Y)"); !errors.Is(err, ErrArity) {
		t.Errorf("ParseGoal(q(X, Y)) = %v, want errors.Is(ErrArity)", err)
	}
}
