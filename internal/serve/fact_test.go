package serve

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/parser"
)

// lineBound is how long one wire line's worth of input may take to
// parse and answer: quadratic work on such a line takes minutes.
var lineBound = time.Second

// escapedFact is link("<n newlines, each written \n>", b): with 256 Ki
// escapes it is 512 KiB of source, and its JSON encoding (each
// backslash escaped again) still fits one 1 MiB wire line.
func escapedFact(n int) string {
	return `link("` + strings.Repeat(`\n`, n) + `", b)`
}

// String escapes decode in time linear in their number: the lexer used
// to copy the rest of the source at every escape, so this fact took
// minutes.
func TestParseFactEscapesLinear(t *testing.T) {
	const n = 256 << 10
	src := escapedFact(n)
	start := time.Now()
	tup, err := ParseFact(src)
	if took := time.Since(start); took > lineBound {
		t.Fatalf("ParseFact of %d escapes took %v, want < %v", n, took, lineBound)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := tup.Args[0]; got.Kind != ast.KindString || got.Str != strings.Repeat("\n", n) {
		t.Fatalf("ParseFact decoded %d bytes of kind %v, want %d newlines", len(got.Str), got.Kind, n)
	}

	// The same fact over the wire is acked under the same bound.
	srv, _ := startServer(t, reachSrc)
	c := dialClient(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start = time.Now()
	if err := c.Inject(ctx, 0, src); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > lineBound {
		t.Fatalf("an inject of %d escapes was acked after %v, want < %v", n, took, lineBound)
	}
}

// manyVarGoal is reach(f(V1, …, Vn, V1, …, Vn…), X): n distinct
// variables inside one compound, each written reps times. Names are
// a capital and base-36 digits, at most 4 bytes, so 200 k of them fit
// one wire line.
func manyVarGoal(n, reps int) string {
	var b strings.Builder
	b.WriteString("reach(f(")
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			if r+i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte(byte('A' + i%26))
			if k := i / 26; k > 0 {
				b.WriteString(strconv.FormatInt(int64(k), 36))
			}
		}
	}
	b.WriteString("), X)")
	return b.String()
}

// A goal's cost is linear in its variables however many it has: its
// cache key and its match numbering used to find each variable by a
// scan of those seen so far, so a goal of one wire line held a core
// for tens of seconds.
func TestQueryManyVariablesLinear(t *testing.T) {
	srv, sess := startServer(t, reachSrc)
	c := dialClient(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Inject(ctx, 0, "link(a, b)"); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct{ n, reps int }{{200_000, 1}, {100_000, 2}} {
		goal := manyVarGoal(g.n, g.reps)
		start := time.Now()
		got, err := sess.Query(ctx, goal)
		if took := time.Since(start); took > lineBound {
			t.Fatalf("Query of %d variables ×%d took %v, want < %v", g.n, g.reps, took, lineBound)
		}
		if err != nil || len(got) != 0 {
			t.Fatalf("Query of %d variables ×%d = %v, %v; want no answers", g.n, g.reps, got, err)
		}
		start = time.Now()
		if _, err := c.Query(ctx, goal); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > lineBound {
			t.Fatalf("a wire query of %d variables ×%d (%d bytes) took %v, want < %v", g.n, g.reps, len(goal), took, lineBound)
		}
	}
}

// A parsed fact holds none of its source's bytes: a stored tuple must
// not pin the request line it came in on.
func TestParseFactHoldsNoInputBytes(t *testing.T) {
	for _, src := range []string{
		`link(a, b)`, `link("plain", "esc\n")`, `p(f(a, "s"), [x, y | z], 1, 2.5)`, `flag`, `flag().`,
	} {
		src = strings.Clone(src)
		tup, err := ParseFact(src)
		if err != nil {
			t.Fatalf("ParseFact(%q): %v", src, err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		hi := lo + uintptr(len(src))
		inside := func(s string) bool {
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			return len(s) > 0 && p >= lo && p < hi
		}
		var walk func(ast.Term)
		walk = func(a ast.Term) {
			if inside(a.Str) {
				t.Errorf("ParseFact(%q): %q lies inside the input", src, a.Str)
			}
			for _, b := range a.Args {
				walk(b)
			}
		}
		if inside(tup.Pred) {
			t.Errorf("ParseFact(%q): predicate %q lies inside the input", src, tup.Pred)
		}
		for _, a := range tup.Args {
			walk(a)
		}
	}
}

// parseFactRef is ParseFact as it was before facts were parsed without
// a program: the whole front end over src + ".".
func parseFactRef(src string) (eval.Tuple, error) {
	src = strings.TrimSpace(src)
	src = strings.TrimSuffix(src, ".")
	src = strings.TrimSuffix(src, "()")
	src += "."
	prog, err := parser.Parse(src)
	if err != nil {
		return eval.Tuple{}, core.ErrBadGoal
	}
	if len(prog.Rules) != 1 || !prog.Rules[0].IsFact() {
		return eval.Tuple{}, core.ErrNotGround
	}
	h := prog.Rules[0].Head
	return eval.Tuple{Pred: h.PredKey(), Args: h.Args}.Keyed(), nil
}

// ParseFact accepts what the program path accepted, as the same tuple,
// and rejects the rest with the same sentinel: a rule, a directive, an
// aggregate or two facts are not ground facts; a malformed one is a
// bad goal. The cases are the corners where the fact's implied '.'
// meets a comment, a NUL or a '.' of its own.
func TestParseFactMatchesProgramPath(t *testing.T) {
	for _, src := range []string{
		"link(a, b)", "link(a, b).", " link(a, b) . ", "flag", "flag()", "flag().", "p(1, -2, 2.5e3, \"s\\t\", f(g(a)), [a | [b]])",
		"p(X)", "p(a, _)", "p(a) :- q(a)", ".base p/1", "p(a). q(b)", "p(min<X>)", "p(a)..", "p(a).()", "p(a). ()",
		"p(a). % x.()", "p(a) % x", "p(a) % x.", "p(a)\x00", "p(a).\x00junk", "p(a) ()", "p.()", "", ".", "()",
		"p(a", "p(\"open", "X < 3", "p(a) /* c */", "p(\xff)", "p(\"\xff\")", "p(\"a\\", "member(a, [a])", "even(2)",
	} {
		got, err := ParseFact(src)
		want, werr := parseFactRef(src)
		for _, s := range []error{core.ErrBadGoal, core.ErrNotGround} {
			if errors.Is(err, s) != errors.Is(werr, s) {
				t.Fatalf("ParseFact(%q) = %v, the program path says %v", src, err, werr)
			}
		}
		if (err == nil) != (werr == nil) || err == nil && !(got.Pred == want.Pred && got.Key() == want.Key()) {
			t.Fatalf("ParseFact(%q) = %v, %v; the program path says %v, %v", src, got, err, want, werr)
		}
	}
}
