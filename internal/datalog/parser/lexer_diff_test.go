package parser

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// lexSeeds add to fuzzSeeds what a byte-offset lexer can get wrong and
// a rune lexer cannot: NUL bytes, invalid UTF-8, multi-byte letters and
// digits, every escape form, numbers a non-ASCII digit cuts short,
// comments and unterminated strings, and line counting across them.
var lexSeeds = []string{
	"p(a).\x00q(b).",
	"p(\"a\x00b\").",
	"% comment\x00\np(a).",
	"/* open \x00 */ p.",
	"p(\xff).",
	"p(\"\xff\xfe\").",
	"p(\"ok\xc3\").",
	"\"\\\xff\"",
	"\"\\\xc3\xa9\"",
	"\"\\",
	"\xef\xbf\xbd",
	"\"\xef\xbf\xbd\"",
	"été(ünïcode, Ωmega, _x', X'').",
	"p(٣). q(1٣). r(12٣.5). s(1.٣). t(1e٣). u(1e+٣). v(٣e5).",
	"n(0, 007, 1.5, 1.5e3, 2E-2, 3e+4, 1e, 1e+, 99999999999999999999, 1e999, 1.0e-400).",
	`s("\a\b\f\n\r\t\v\\\"", "\x41\101é\U0001F600", "\'", "\q", "\x4", "\400", "\ud800").`,
	"s(\"unterminated",
	"s(\"line\nbreak\").",
	"p :- q, r.\n\n% c\n// d\n/* e\nf */ s(X) :- t(X), X != 1, X == 2, X <= 3, X >= 4, X < 5, X > 6, X = 7 + 8 * 9 / 10 - 11 mod 12, NOT u(X), not v(X), ~w(X).",
	".base p/2. .window p/2 100. .store p/2 at 0 hops 1. .x",
	"a : b ! c # d",
	"[1, 2 | T] [] ( ) ,",
	"p(X) :- q(X)\u0085  .",
	"/* unterminated",
	"//",
	"%",
	". .. ._ .X .5",
}

type lexed struct {
	toks []token
	err  string
}

func lexAll(next func() (token, error)) lexed {
	var out lexed
	for len(out.toks) < 1<<16 {
		t, err := next()
		if err != nil {
			out.err = err.Error()
			return out
		}
		out.toks = append(out.toks, t)
		if t.kind == tokEOF {
			return out
		}
	}
	return out
}

func sameToken(a, b token) bool {
	return a.kind == b.kind && a.text == b.text && a.i == b.i &&
		math.Float64bits(a.f) == math.Float64bits(b.f) && a.line == b.line
}

// corpusSeeds reads the string inputs of a fuzz target's committed
// corpus (testdata/fuzz/<name>).
func corpusSeeds(t testing.TB, name string) []string {
	files, _ := filepath.Glob(filepath.Join("testdata", "fuzz", name, "*"))
	var out []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if q, ok := strings.CutPrefix(line, "string("); ok {
				if s, err := strconv.Unquote(strings.TrimSuffix(q, ")")); err == nil {
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// FuzzLexer holds the byte-offset lexer to the rune lexer it replaced
// (lexer_ref_test.go): on every input, the same token stream — kind,
// text, integer and float value, line — and the same error text.
func FuzzLexer(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, s := range corpusSeeds(f, "FuzzParse") {
		f.Add(s)
	}
	for _, s := range lexSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return // the reference re-encodes the rest of src per escape
		}
		lx := lexer{src: src, line: 1}
		got := lexAll(lx.next)
		want := lexAll(newRefLexer(src).next)
		if got.err != want.err {
			t.Fatalf("%q: error %q, reference %q", src, got.err, want.err)
		}
		if len(got.toks) != len(want.toks) {
			t.Fatalf("%q: %d tokens, reference %d\n got %v\nwant %v", src, len(got.toks), len(want.toks), got.toks, want.toks)
		}
		for i := range got.toks {
			if !sameToken(got.toks[i], want.toks[i]) {
				t.Fatalf("%q: token %d is %+v, reference %+v", src, i, got.toks[i], want.toks[i])
			}
		}
	})
}
