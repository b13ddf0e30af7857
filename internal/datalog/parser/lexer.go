// Package parser implements the lexer and parser for the deductive
// programming language: Datalog extended with function symbols, lists,
// negation (NOT), built-in comparisons, arithmetic expressions, head
// aggregates (min<D>), and directives (.base, .query, .window).
package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind uint8

const (
	tokEOF   tokenKind = iota
	tokIdent           // lowercase-initial identifier: predicate, functor, symbol
	tokVar             // uppercase-initial identifier or _
	tokInt
	tokFloat
	tokString
	tokLParen    // (
	tokRParen    // )
	tokLBrack    // [
	tokRBrack    // ]
	tokComma     // ,
	tokDot       // . (end of clause)
	tokColonDash // :-
	tokBar       // |
	tokNot       // NOT / not / ~
	tokOp        // < <= > >= = == != + - * / is mod
	tokLt        // < (disambiguated for aggregates)
	tokGt        // >
	tokDirective // .base .query .window
)

type token struct {
	kind tokenKind
	text string
	i    int64
	f    float64
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "<eof>"
	case tokInt:
		return fmt.Sprintf("%d", t.i)
	case tokFloat:
		return fmt.Sprintf("%g", t.f)
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return t.text
	}
}

// lexer reads src by byte offset, decoding a rune only where a byte is
// not ASCII. A token's text is a substring of src; only a string
// literal holding an escape or invalid UTF-8 is copied. A NUL byte reads
// as the end of input wherever it stands, and an invalid byte as
// U+FFFD.
type lexer struct {
	src  string
	pos  int // byte offset of the next rune
	line int
	// dot is a '.' implied after src (ParseLiteral): the end of src
	// yields it once, unless a line comment ran into the end first.
	dot bool
}

// peek returns the rune at pos, 0 at the end of input.
func (lx *lexer) peek() rune { return lx.peekAt(0) }

// peekAt returns the rune off bytes past pos. Callers look past ASCII
// runes only, so the byte offset is the rune offset.
func (lx *lexer) peekAt(off int) rune {
	i := lx.pos + off
	if i >= len(lx.src) {
		return 0
	}
	if c := lx.src[i]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(lx.src[i:])
	return r
}

// advance moves past the rune at pos.
func (lx *lexer) advance() {
	if lx.pos >= len(lx.src) {
		return
	}
	c := lx.src[lx.pos]
	if c >= utf8.RuneSelf {
		_, n := utf8.DecodeRuneInString(lx.src[lx.pos:])
		lx.pos += n
		return
	}
	lx.pos++
	if c == '\n' {
		lx.line++
	}
}

// skipLine skips a line comment up to its newline.
func (lx *lexer) skipLine() {
	for lx.peek() != '\n' && lx.peek() != 0 {
		lx.advance()
	}
	if lx.pos >= len(lx.src) {
		lx.dot = false // the implied '.' is part of the comment
	}
}

func (lx *lexer) skipSpaceAndComments() error {
	for {
		r := lx.peek()
		switch {
		case r == 0:
			return nil
		case unicode.IsSpace(r):
			lx.advance()
		case r == '%': // line comment
			lx.skipLine()
		case r == '/' && lx.peekAt(1) == '/':
			lx.skipLine()
		case r == '/' && lx.peekAt(1) == '*':
			lx.pos += 2
			for {
				if lx.peek() == 0 {
					return fmt.Errorf("line %d: unterminated block comment", lx.line)
				}
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.pos += 2
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '\''
}

// op returns the token of kind k spanning the n bytes at pos.
func (lx *lexer) op(k tokenKind, n, line int) (token, error) {
	lx.pos += n
	return token{kind: k, text: lx.src[lx.pos-n : lx.pos], line: line}, nil
}

// next returns the next token.
func (lx *lexer) next() (token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	line := lx.line
	r := lx.peek()
	if r == 0 {
		if lx.dot && lx.pos >= len(lx.src) {
			lx.dot = false
			return token{kind: tokDot, text: ".", line: line}, nil
		}
		return token{kind: tokEOF, line: line}, nil
	}

	switch {
	case unicode.IsDigit(r):
		return lx.lexNumber(line)
	case isIdentStart(r):
		return lx.lexIdent(line)
	}

	switch r {
	case '"':
		return lx.lexString(line)
	case '(':
		return lx.op(tokLParen, 1, line)
	case ')':
		return lx.op(tokRParen, 1, line)
	case '[':
		return lx.op(tokLBrack, 1, line)
	case ']':
		return lx.op(tokRBrack, 1, line)
	case ',':
		return lx.op(tokComma, 1, line)
	case '|':
		return lx.op(tokBar, 1, line)
	case '~':
		return lx.op(tokNot, 1, line)
	case ':':
		if lx.peekAt(1) == '-' {
			return lx.op(tokColonDash, 2, line)
		}
		return token{}, fmt.Errorf("line %d: unexpected ':'", line)
	case '.':
		// Could be end-of-clause or a directive ".base" etc.
		if isIdentStart(lx.peekAt(1)) {
			lx.pos++
			start := lx.pos
			for isIdentRune(lx.peek()) {
				lx.advance()
			}
			return token{kind: tokDirective, text: lx.src[start:lx.pos], line: line}, nil
		}
		return lx.op(tokDot, 1, line)
	case '<':
		if lx.peekAt(1) == '=' {
			return lx.op(tokOp, 2, line)
		}
		return lx.op(tokLt, 1, line)
	case '>':
		if lx.peekAt(1) == '=' {
			return lx.op(tokOp, 2, line)
		}
		return lx.op(tokGt, 1, line)
	case '=':
		if lx.peekAt(1) == '=' {
			return lx.op(tokOp, 2, line)
		}
		return lx.op(tokOp, 1, line)
	case '!':
		if lx.peekAt(1) == '=' {
			return lx.op(tokOp, 2, line)
		}
		return token{}, fmt.Errorf("line %d: unexpected '!'", line)
	case '+', '*', '/', '-':
		return lx.op(tokOp, 1, line)
	}
	return token{}, fmt.Errorf("line %d: unexpected character %q", line, r)
}

func (lx *lexer) skipDigits() {
	for unicode.IsDigit(lx.peek()) {
		lx.advance()
	}
}

func (lx *lexer) lexNumber(line int) (token, error) {
	start := lx.pos
	lx.skipDigits()
	isFloat := false
	if lx.peek() == '.' && unicode.IsDigit(lx.peekAt(1)) {
		isFloat = true
		lx.pos++
		lx.skipDigits()
	}
	if lx.peek() == 'e' || lx.peek() == 'E' {
		nxt := lx.peekAt(1)
		nxt2 := lx.peekAt(2)
		if unicode.IsDigit(nxt) || ((nxt == '+' || nxt == '-') && unicode.IsDigit(nxt2)) {
			isFloat = true
			lx.pos++
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.pos++
			}
			lx.skipDigits()
		}
	}
	text := lx.src[start:lx.pos]
	if isFloat {
		f, err := strconv.ParseFloat(scannedPrefix(text), 64)
		if err != nil {
			return token{}, fmt.Errorf("line %d: bad float %q", line, text)
		}
		return token{kind: tokFloat, f: f, text: text, line: line}, nil
	}
	i, err := strconv.ParseInt(scannedPrefix(text), 10, 64)
	if err != nil {
		return token{}, fmt.Errorf("line %d: bad integer %q", line, text)
	}
	return token{kind: tokInt, i: i, text: text, line: line}, nil
}

// scannedPrefix is the part of a number token that carries its value:
// the token up to its first non-ASCII byte, which is what fmt.Sscanf's
// %d and %g read of it, the reading the language's numbers are defined
// by. A token is unicode.IsDigit runes plus '.', 'e', 'E', '+' and '-',
// so a non-ASCII digit ends the value ("12٣" is 12, "٣" no number).
func scannedPrefix(text string) string {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			return text[:i]
		}
	}
	return text
}

func (lx *lexer) lexIdent(line int) (token, error) {
	start := lx.pos
	first := lx.peek()
	lx.advance()
	for isIdentRune(lx.peek()) {
		lx.advance()
	}
	text := lx.src[start:lx.pos]
	switch text {
	case "NOT", "not":
		return token{kind: tokNot, text: text, line: line}, nil
	case "is", "mod":
		return token{kind: tokOp, text: text, line: line}, nil
	}
	if first == '_' || unicode.IsUpper(first) {
		return token{kind: tokVar, text: text, line: line}, nil
	}
	return token{kind: tokIdent, text: text, line: line}, nil
}

// lexString reads a string literal. Its text is the substring between
// the quotes until an escape or an invalid byte needs decoding; from
// there on it is built as one copy.
func (lx *lexer) lexString(line int) (token, error) {
	src := lx.src
	start := lx.pos + 1 // past the opening quote
	var b strings.Builder
	decoding := false
	for i := start; i < len(src); {
		switch c := src[i]; {
		case c == '"':
			lx.pos = i + 1
			if !decoding {
				return token{kind: tokString, text: src[start:i], line: line}, nil
			}
			return token{kind: tokString, text: b.String(), line: line}, nil
		case c == '\n' || c == 0:
			return token{}, fmt.Errorf("line %d: unterminated string", line)
		case c == '\\':
			// Accept the full Go escape set (\n, \t, \xNN, \uNNNN,
			// octal, ...), not a hand-picked subset: printed programs
			// render string literals with strconv.Quote, which emits
			// \xNN for control bytes, and an accepted program must
			// re-parse byte-identically. UnquoteChar reads the escape
			// in place: n escapes cost O(n).
			esc, _, tail, err := strconv.UnquoteChar(src[i:], '"')
			if err != nil {
				return token{}, fmt.Errorf("line %d: bad escape %q", line, escapeText(src[i:]))
			}
			if !decoding {
				b.WriteString(src[start:i])
				decoding = true
			}
			b.WriteRune(esc)
			i = len(src) - len(tail)
		default:
			r, n := utf8.DecodeRuneInString(src[i:])
			if r == utf8.RuneError && n == 1 && !decoding {
				b.WriteString(src[start:i])
				decoding = true
			}
			if decoding {
				b.WriteRune(r)
			}
			i += n
		}
	}
	return token{}, fmt.Errorf("line %d: unterminated string", line)
}

// escapeText is the bad-escape message's excerpt of rest (which starts
// at the backslash): its first two bytes, the second taken from the
// UTF-8 encoding of the rune there (U+FFFD for an invalid byte).
func escapeText(rest string) string {
	if len(rest) < 2 || rest[1] < utf8.RuneSelf {
		return rest[:min(len(rest), 2)]
	}
	r, _ := utf8.DecodeRuneInString(rest[1:])
	var enc [utf8.UTFMax]byte
	utf8.EncodeRune(enc[:], r)
	return string([]byte{'\\', enc[0]})
}
