package ast

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refString is the strings.Builder renderer Term.String used before it
// became append-style, kept verbatim as the reference the append
// renderer must reproduce byte for byte.
func refString(t Term) string {
	var b strings.Builder
	refAppend(t, &b)
	return b.String()
}

func refAppend(t Term, b *strings.Builder) {
	switch t.Kind {
	case KindInt:
		b.WriteString(strconv.FormatInt(t.Int, 10))
	case KindFloat:
		s := strconv.FormatFloat(t.Float, 'g', -1, 64)
		b.WriteString(s)
		if !strings.ContainsAny(s, ".eE") {
			b.WriteString(".0")
		}
	case KindString:
		b.WriteString(strconv.Quote(t.Str))
	case KindSymbol:
		b.WriteString(t.Str)
	case KindVar:
		b.WriteString(t.Str)
	case KindCompound:
		if t.Str == ListFunctor && len(t.Args) == 2 {
			refAppendList(t, b)
			return
		}
		if isArithOp(t.Str) && len(t.Args) == 2 {
			b.WriteByte('(')
			refAppend(t.Args[0], b)
			b.WriteByte(' ')
			b.WriteString(t.Str)
			b.WriteByte(' ')
			refAppend(t.Args[1], b)
			b.WriteByte(')')
			return
		}
		if t.Str == "-" && len(t.Args) == 1 {
			b.WriteByte('-')
			refAppend(t.Args[0], b)
			return
		}
		b.WriteString(t.Str)
		b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			refAppend(a, b)
		}
		b.WriteByte(')')
	}
}

func refAppendList(t Term, b *strings.Builder) {
	b.WriteByte('[')
	first := true
	for {
		if t.Kind == KindCompound && t.Str == ListFunctor && len(t.Args) == 2 {
			if !first {
				b.WriteString(", ")
			}
			refAppend(t.Args[0], b)
			first = false
			t = t.Args[1]
			continue
		}
		if t.Kind == KindSymbol && t.Str == NilSymbol {
			break
		}
		b.WriteString(" | ")
		refAppend(t, b)
		break
	}
	b.WriteByte(']')
}

// renderCases covers every term kind and every rendering branch.
func renderCases() []Term {
	nested := Compound("f", Compound("g", Int64(-1), Compound("h")), List(Float64(2), Var("T")))
	return []Term{
		Int64(0), Int64(42), Int64(-7), Int64(math.MinInt64), Int64(math.MaxInt64),
		Float64(2.5), Float64(3), Float64(-3), Float64(0), Float64(math.Copysign(0, -1)),
		Float64(1e21), Float64(1e-7), Float64(-2.5e300), Float64(123456789),
		Float64(math.Inf(1)), Float64(math.Inf(-1)), Float64(math.NaN()),
		String_(""), String_("plain"), String_(`a"b`), String_("tab\there\nnl"), String_(`back\slash`),
		String_("ünï€ode"), String_(" <&>"), String_("\xff\xfe"),
		Symbol("enemy"), Symbol(NilSymbol), Symbol(""),
		Var("X"), Var("_G12"),
		Compound("f"), Compound("f", Int64(1), Symbol("a")), nested,
		Compound("+", Var("D"), Int64(1)), Compound("*", Compound("-", Int64(3), Var("X")), Float64(0.5)),
		Compound("mod", Var("A"), Int64(7)), Compound("-", Var("X")), Compound("-", Int64(-2)),
		Compound("+", Int64(1)), Compound("-", Int64(1), Int64(2), Int64(3)),
		List(), List(Symbol("a")), List(Symbol("a"), Var("X"), String_("s")),
		List(List(Int64(1), Int64(2)), List()),
		Compound(ListFunctor, Var("H"), Var("T")),
		Compound(ListFunctor, Int64(1), Compound(ListFunctor, Int64(2), Symbol("tail"))),
		Compound(ListFunctor, Int64(1)),
		Compound("g", Compound(ListFunctor, Symbol("a"), Symbol(NilSymbol)), String_("x y")),
	}
}

// The append renderer is the old strings.Builder one, byte for byte,
// over every term kind, through String, FormatTerms and a non-empty
// destination.
func TestAppendStringMatchesReference(t *testing.T) {
	cases := renderCases()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		cases = append(cases, randTerm(r, 4))
	}
	for _, tm := range cases {
		want := refString(tm)
		if got := tm.String(); got != want {
			t.Fatalf("String() = %q, reference %q", got, want)
		}
		if got := string(tm.AppendString([]byte("pre:"))); got != "pre:"+want {
			t.Fatalf("AppendString onto a prefix = %q, want %q", got, "pre:"+want)
		}
	}
	for i := 0; i+3 <= len(cases); i += 3 {
		ts := cases[i : i+3]
		want := refString(ts[0]) + ", " + refString(ts[1]) + ", " + refString(ts[2])
		if got := FormatTerms(ts); got != want {
			t.Fatalf("FormatTerms = %q, want %q", got, want)
		}
	}
	if got := FormatTerms(nil); got != "" {
		t.Fatalf("FormatTerms(nil) = %q", got)
	}
}

// A short term renders with one allocation: the string itself.
func TestTermStringAllocatesOnce(t *testing.T) {
	tm := Compound("f", Int64(-3), Float64(2), List(Symbol("a"), Var("X")))
	if n := testing.AllocsPerRun(100, func() { _ = tm.String() }); n != 1 {
		t.Fatalf("Term.String allocs = %v, want 1", n)
	}
}
