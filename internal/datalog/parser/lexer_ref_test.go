package parser

// The reference lexer: the rune-slice lexer the byte-offset one
// replaced, kept verbatim as FuzzLexer's oracle. It decodes the whole
// source to []rune up front, builds every token text rune by rune,
// reads numbers with fmt.Sscanf and re-encodes the rest of the source
// per string escape; the tokens and error texts it produces are the
// contract lexer.go keeps.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type refLexer struct {
	src  []rune
	pos  int
	line int
}

func newRefLexer(src string) *refLexer {
	return &refLexer{src: []rune(src), line: 1}
}

func (lx *refLexer) peek() rune {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *refLexer) peekAt(off int) rune {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *refLexer) advance() rune {
	r := lx.peek()
	lx.pos++
	if r == '\n' {
		lx.line++
	}
	return r
}

func (lx *refLexer) skipSpaceAndComments() error {
	for {
		r := lx.peek()
		switch {
		case r == 0:
			return nil
		case unicode.IsSpace(r):
			lx.advance()
		case r == '%': // line comment
			for lx.peek() != '\n' && lx.peek() != 0 {
				lx.advance()
			}
		case r == '/' && lx.peekAt(1) == '/':
			for lx.peek() != '\n' && lx.peek() != 0 {
				lx.advance()
			}
		case r == '/' && lx.peekAt(1) == '*':
			lx.advance()
			lx.advance()
			for {
				if lx.peek() == 0 {
					return fmt.Errorf("line %d: unterminated block comment", lx.line)
				}
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
}

// next returns the next token.
func (lx *refLexer) next() (token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	line := lx.line
	r := lx.peek()
	if r == 0 {
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
		lx.advance()
		return token{kind: tokLParen, text: "(", line: line}, nil
	case ')':
		lx.advance()
		return token{kind: tokRParen, text: ")", line: line}, nil
	case '[':
		lx.advance()
		return token{kind: tokLBrack, text: "[", line: line}, nil
	case ']':
		lx.advance()
		return token{kind: tokRBrack, text: "]", line: line}, nil
	case ',':
		lx.advance()
		return token{kind: tokComma, text: ",", line: line}, nil
	case '|':
		lx.advance()
		return token{kind: tokBar, text: "|", line: line}, nil
	case '~':
		lx.advance()
		return token{kind: tokNot, text: "~", line: line}, nil
	case ':':
		lx.advance()
		if lx.peek() == '-' {
			lx.advance()
			return token{kind: tokColonDash, text: ":-", line: line}, nil
		}
		return token{}, fmt.Errorf("line %d: unexpected ':'", line)
	case '.':
		// Could be end-of-clause or a directive ".base" etc.
		if isIdentStart(lx.peekAt(1)) {
			lx.advance()
			var b strings.Builder
			for isIdentRune(lx.peek()) {
				b.WriteRune(lx.advance())
			}
			return token{kind: tokDirective, text: b.String(), line: line}, nil
		}
		lx.advance()
		return token{kind: tokDot, text: ".", line: line}, nil
	case '<':
		lx.advance()
		if lx.peek() == '=' {
			lx.advance()
			return token{kind: tokOp, text: "<=", line: line}, nil
		}
		return token{kind: tokLt, text: "<", line: line}, nil
	case '>':
		lx.advance()
		if lx.peek() == '=' {
			lx.advance()
			return token{kind: tokOp, text: ">=", line: line}, nil
		}
		return token{kind: tokGt, text: ">", line: line}, nil
	case '=':
		lx.advance()
		if lx.peek() == '=' {
			lx.advance()
			return token{kind: tokOp, text: "==", line: line}, nil
		}
		return token{kind: tokOp, text: "=", line: line}, nil
	case '!':
		lx.advance()
		if lx.peek() == '=' {
			lx.advance()
			return token{kind: tokOp, text: "!=", line: line}, nil
		}
		return token{}, fmt.Errorf("line %d: unexpected '!'", line)
	case '+', '*', '/':
		lx.advance()
		return token{kind: tokOp, text: string(r), line: line}, nil
	case '-':
		lx.advance()
		return token{kind: tokOp, text: "-", line: line}, nil
	}
	return token{}, fmt.Errorf("line %d: unexpected character %q", line, r)
}

func (lx *refLexer) lexNumber(line int) (token, error) {
	var b strings.Builder
	for unicode.IsDigit(lx.peek()) {
		b.WriteRune(lx.advance())
	}
	isFloat := false
	if lx.peek() == '.' && unicode.IsDigit(lx.peekAt(1)) {
		isFloat = true
		b.WriteRune(lx.advance())
		for unicode.IsDigit(lx.peek()) {
			b.WriteRune(lx.advance())
		}
	}
	if lx.peek() == 'e' || lx.peek() == 'E' {
		nxt := lx.peekAt(1)
		nxt2 := lx.peekAt(2)
		if unicode.IsDigit(nxt) || ((nxt == '+' || nxt == '-') && unicode.IsDigit(nxt2)) {
			isFloat = true
			b.WriteRune(lx.advance())
			if lx.peek() == '+' || lx.peek() == '-' {
				b.WriteRune(lx.advance())
			}
			for unicode.IsDigit(lx.peek()) {
				b.WriteRune(lx.advance())
			}
		}
	}
	text := b.String()
	if isFloat {
		var f float64
		if _, err := fmt.Sscanf(text, "%g", &f); err != nil {
			return token{}, fmt.Errorf("line %d: bad float %q", line, text)
		}
		return token{kind: tokFloat, f: f, text: text, line: line}, nil
	}
	var i int64
	if _, err := fmt.Sscanf(text, "%d", &i); err != nil {
		return token{}, fmt.Errorf("line %d: bad integer %q", line, text)
	}
	return token{kind: tokInt, i: i, text: text, line: line}, nil
}

func (lx *refLexer) lexIdent(line int) (token, error) {
	var b strings.Builder
	first := lx.advance()
	b.WriteRune(first)
	for isIdentRune(lx.peek()) {
		b.WriteRune(lx.advance())
	}
	text := b.String()
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

func (lx *refLexer) lexString(line int) (token, error) {
	lx.advance() // opening quote
	var b strings.Builder
	for {
		r := lx.peek()
		switch r {
		case 0, '\n':
			return token{}, fmt.Errorf("line %d: unterminated string", line)
		case '"':
			lx.advance()
			return token{kind: tokString, text: b.String(), line: line}, nil
		case '\\':
			// Accept the full Go escape set (\n, \t, \xNN, \uNNNN,
			// octal, ...), not a hand-picked subset: printed programs
			// render string literals with strconv.Quote, which emits
			// \xNN for control bytes, and an accepted program must
			// re-parse byte-identically. Every escape sequence is pure
			// ASCII, so the byte count UnquoteChar reports equals the
			// rune count to advance.
			rest := string(lx.src[lx.pos:])
			esc, _, tail, err := strconv.UnquoteChar(rest, '"')
			if err != nil {
				return token{}, fmt.Errorf("line %d: bad escape %q", line, rest[:min(len(rest), 2)])
			}
			lx.pos += len(rest) - len(tail)
			b.WriteRune(esc)
		default:
			b.WriteRune(lx.advance())
		}
	}
}
