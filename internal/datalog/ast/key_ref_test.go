package ast

import (
	"bytes"
	"strconv"
	"testing"
)

// refAppendKey is AppendKey as it was before its quote fast path: every
// quoted text goes through strconv.AppendQuote. It is the reference the
// fast path must reproduce byte for byte.
func refAppendKey(t Term, b []byte) []byte {
	switch t.Kind {
	case KindInt:
		b = append(b, 'i')
		b = strconv.AppendInt(b, t.Int, 10)
	case KindFloat:
		b = append(b, 'f')
		b = strconv.AppendFloat(b, t.Float, 'g', -1, 64)
	case KindString:
		b = append(b, 's')
		b = strconv.AppendQuote(b, t.Str)
	case KindSymbol:
		b = append(b, 'a')
		b = strconv.AppendQuote(b, t.Str)
	case KindVar:
		b = append(b, 'v')
		b = append(b, t.Str...)
	case KindCompound:
		b = append(b, 'c')
		b = strconv.AppendQuote(b, t.Str)
		b = append(b, '(')
		for i, a := range t.Args {
			if i > 0 {
				b = append(b, ',')
			}
			b = refAppendKey(a, b)
		}
		b = append(b, ')')
	}
	return b
}

// FuzzAppendKey holds AppendKey to the strconv-only reference on string,
// symbol and compound-functor text: the fast path may only skip strconv
// where strconv would have copied the bytes unchanged.
func FuzzAppendKey(f *testing.F) {
	for _, s := range []string{"", `"`, `\`, "\x00", "\x1f", "\x7f", "\x80", "\xff\xfe", "a\xc3", "é", "\u2028", " ", "n6399", `a"b\c`, " ~"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, term := range []Term{
			String_(s),
			Symbol(s),
			Compound(s, Symbol(s), Int64(1), String_(s)),
		} {
			got, want := term.AppendKey([]byte("p")), refAppendKey(term, []byte("p"))
			if !bytes.Equal(got, want) {
				t.Fatalf("%q: key %q, reference %q", s, got, want)
			}
		}
	})
}
