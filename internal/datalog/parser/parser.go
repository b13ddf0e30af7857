package parser

import (
	"fmt"
	"strconv"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/builtin"
)

// Options configures parsing.
type Options struct {
	// IsBuiltin reports whether name/arity names a built-in predicate,
	// so p(...) atoms in rule bodies can be classified as built-in calls
	// rather than relational subgoals. Defaults to the standard registry.
	IsBuiltin func(name string, arity int) bool
}

// Parse parses a full program using the default built-in registry.
func Parse(src string) (*ast.Program, error) {
	return ParseWith(src, Options{})
}

// defaultIsBuiltin is the shared standard registry's predicate test.
var defaultIsBuiltin = builtin.Standard.IsPred

// ParseWith parses a full program with explicit options.
func ParseWith(src string, opts Options) (*ast.Program, error) {
	if opts.IsBuiltin == nil {
		opts.IsBuiltin = defaultIsBuiltin
	}
	p := &parser{lx: newLexer(src), opts: opts, prog: ast.NewProgram()}
	if err := p.init(); err != nil {
		return nil, err
	}
	for p.tok.kind != tokEOF {
		if err := p.clause(); err != nil {
			return nil, err
		}
	}
	return p.prog, nil
}

// ParseRule parses a single rule (terminated by '.').
func ParseRule(src string) (*ast.Rule, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Rules) != 1 {
		return nil, fmt.Errorf("parser: expected exactly one rule, got %d", len(prog.Rules))
	}
	return prog.Rules[0], nil
}

// ParseTerm parses a single term.
func ParseTerm(src string) (ast.Term, error) {
	p := &parser{lx: newLexer(src), opts: Options{IsBuiltin: func(string, int) bool { return false }}}
	if err := p.init(); err != nil {
		return ast.Term{}, err
	}
	t, err := p.expr()
	if err != nil {
		return ast.Term{}, err
	}
	if p.tok.kind != tokEOF {
		return ast.Term{}, fmt.Errorf("parser: trailing input after term: %s", p.tok)
	}
	return t, nil
}

type parser struct {
	lx   *lexer
	opts Options
	prog *ast.Program

	tok  token // current
	tok2 token // lookahead
	anon int   // counter for anonymous variable renaming (per rule)
}

func (p *parser) init() error {
	var err error
	if p.tok, err = p.lx.next(); err != nil {
		return err
	}
	p.tok2, err = p.lx.next()
	return err
}

func (p *parser) advance() error {
	p.tok = p.tok2
	var err error
	p.tok2, err = p.lx.next()
	return err
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	if p.tok.kind != kind {
		return token{}, fmt.Errorf("line %d: expected %s, found %s", p.tok.line, what, p.tok)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", p.tok.line, fmt.Sprintf(format, args...))
}

// clause parses one directive or rule.
func (p *parser) clause() error {
	if p.tok.kind == tokDirective {
		return p.directive()
	}
	return p.rule()
}

// directive := .base p/2. | .query p/2. | .window p/2 N.
func (p *parser) directive() error {
	name := p.tok.text
	if err := p.advance(); err != nil {
		return err
	}
	pred, arity, err := p.predSpec()
	if err != nil {
		return err
	}
	key := fmt.Sprintf("%s/%d", pred, arity)
	switch name {
	case "base":
		p.prog.Base[key] = true
	case "query":
		p.prog.Queries = append(p.prog.Queries, key)
	case "window":
		n, err := p.expect(tokInt, "window range")
		if err != nil {
			return err
		}
		p.prog.Windows[key] = n.i
	case "store":
		// .store p/2 at K [hops H].
		if p.tok.kind != tokIdent || p.tok.text != "at" {
			return p.errf("expected 'at' in .store directive")
		}
		if err := p.advance(); err != nil {
			return err
		}
		argTok, err := p.expect(tokInt, "placement argument index")
		if err != nil {
			return err
		}
		if argTok.i < 0 || int(argTok.i) >= arity {
			return fmt.Errorf("line %d: placement argument %d out of range for %s", argTok.line, argTok.i, key)
		}
		pl := ast.Placement{Arg: int(argTok.i)}
		if p.tok.kind == tokIdent && p.tok.text == "hops" {
			if err := p.advance(); err != nil {
				return err
			}
			h, err := p.expect(tokInt, "replication hops")
			if err != nil {
				return err
			}
			pl.Hops = int(h.i)
		}
		p.prog.Placements[key] = pl
	default:
		return p.errf("unknown directive .%s", name)
	}
	_, err = p.expect(tokDot, "'.'")
	return err
}

func (p *parser) predSpec() (string, int, error) {
	id, err := p.expect(tokIdent, "predicate name")
	if err != nil {
		return "", 0, err
	}
	if p.tok.kind != tokOp || p.tok.text != "/" {
		return "", 0, p.errf("expected '/' in predicate spec")
	}
	if err := p.advance(); err != nil {
		return "", 0, err
	}
	n, err := p.expect(tokInt, "arity")
	if err != nil {
		return "", 0, err
	}
	return id.text, int(n.i), nil
}

// rule := head [ ':-' body ] '.'
func (p *parser) rule() error {
	p.anon = 0
	line := p.tok.line
	head, aggs, err := p.head()
	if err != nil {
		return err
	}
	r := &ast.Rule{Head: head, HeadAggs: aggs, Line: line}
	if p.tok.kind == tokColonDash {
		if err := p.advance(); err != nil {
			return err
		}
		for {
			lit, err := p.literal()
			if err != nil {
				return err
			}
			r.Body = append(r.Body, lit)
			if p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return err
				}
				continue
			}
			break
		}
	}
	if _, err := p.expect(tokDot, "'.' at end of rule"); err != nil {
		return err
	}
	if p.opts.IsBuiltin(r.Head.Predicate, len(r.Head.Args)) {
		return fmt.Errorf("line %d: head predicate %s is a built-in", line, r.Head.PredKey())
	}
	p.prog.AddRule(r)
	return nil
}

// head := ident [ '(' headArg (',' headArg)* ')' ]
func (p *parser) head() (ast.Literal, []*ast.Aggregate, error) {
	id, err := p.expect(tokIdent, "head predicate")
	if err != nil {
		return ast.Literal{}, nil, err
	}
	lit := ast.Literal{Predicate: id.text}
	var aggs []*ast.Aggregate
	hasAgg := false
	if p.tok.kind == tokLParen {
		if err := p.advance(); err != nil {
			return ast.Literal{}, nil, err
		}
		for {
			arg, agg, err := p.headArg()
			if err != nil {
				return ast.Literal{}, nil, err
			}
			lit.Args = append(lit.Args, arg)
			aggs = append(aggs, agg)
			if agg != nil {
				hasAgg = true
			}
			if p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return ast.Literal{}, nil, err
				}
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return ast.Literal{}, nil, err
		}
	}
	if !hasAgg {
		aggs = nil
	}
	return lit, aggs, nil
}

// headArg := agg '<' Var '>' | expr
func (p *parser) headArg() (ast.Term, *ast.Aggregate, error) {
	if p.tok.kind == tokIdent && isAggName(p.tok.text) && p.tok2.kind == tokLt {
		fn := p.tok.text
		if err := p.advance(); err != nil { // agg name
			return ast.Term{}, nil, err
		}
		if err := p.advance(); err != nil { // '<'
			return ast.Term{}, nil, err
		}
		v, err := p.expect(tokVar, "aggregated variable")
		if err != nil {
			return ast.Term{}, nil, err
		}
		if p.tok.kind != tokGt {
			return ast.Term{}, nil, p.errf("expected '>' closing aggregate")
		}
		if err := p.advance(); err != nil {
			return ast.Term{}, nil, err
		}
		return ast.Var(v.text), &ast.Aggregate{Func: fn, Var: v.text}, nil
	}
	t, err := p.expr()
	return t, nil, err
}

func isAggName(s string) bool {
	switch s {
	case "count", "sum", "min", "max", "avg":
		return true
	}
	return false
}

// literal := [NOT] ( atom | expr cmpOp expr )
func (p *parser) literal() (ast.Literal, error) {
	negated := false
	if p.tok.kind == tokNot {
		negated = true
		if err := p.advance(); err != nil {
			return ast.Literal{}, err
		}
	}
	lhs, err := p.expr()
	if err != nil {
		return ast.Literal{}, err
	}
	if op, ok := p.cmpOp(); ok {
		if err := p.advance(); err != nil {
			return ast.Literal{}, err
		}
		rhs, err := p.expr()
		if err != nil {
			return ast.Literal{}, err
		}
		return ast.Literal{Predicate: op, Args: []ast.Term{lhs, rhs}, Builtin: true, Negated: negated}, nil
	}
	// Not a comparison: the expression itself must be a predicate atom.
	switch lhs.Kind {
	case ast.KindCompound:
		if lhs.Str == ast.ListFunctor {
			return ast.Literal{}, p.errf("a list is not a valid literal")
		}
		if isArithFunctor(lhs.Str, len(lhs.Args)) {
			return ast.Literal{}, p.errf("arithmetic expression is not a valid literal (missing comparison?)")
		}
		bi := p.opts.IsBuiltin(lhs.Str, len(lhs.Args))
		return ast.Literal{Predicate: lhs.Str, Args: lhs.Args, Builtin: bi, Negated: negated}, nil
	case ast.KindSymbol:
		bi := p.opts.IsBuiltin(lhs.Str, 0)
		return ast.Literal{Predicate: lhs.Str, Builtin: bi, Negated: negated}, nil
	default:
		return ast.Literal{}, p.errf("expected a literal, found term %s", lhs)
	}
}

func isArithFunctor(name string, arity int) bool {
	switch name {
	case "+", "-", "*", "/", "mod":
		return arity == 2 || (arity == 1 && name == "-")
	}
	return false
}

func (p *parser) cmpOp() (string, bool) {
	switch p.tok.kind {
	case tokLt:
		return "<", true
	case tokGt:
		return ">", true
	case tokOp:
		switch p.tok.text {
		case "<=", ">=", "=", "==", "!=", "is":
			return p.tok.text, true
		}
	}
	return "", false
}

// expr := mulExpr (('+'|'-') mulExpr)*
func (p *parser) expr() (ast.Term, error) {
	t, err := p.mulExpr()
	if err != nil {
		return ast.Term{}, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		rhs, err := p.mulExpr()
		if err != nil {
			return ast.Term{}, err
		}
		t = ast.Compound(op, t, rhs)
	}
	return t, nil
}

// mulExpr := unary (('*'|'/'|'mod') unary)*
func (p *parser) mulExpr() (ast.Term, error) {
	t, err := p.unary()
	if err != nil {
		return ast.Term{}, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "*" || p.tok.text == "/" || p.tok.text == "mod") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		rhs, err := p.unary()
		if err != nil {
			return ast.Term{}, err
		}
		t = ast.Compound(op, t, rhs)
	}
	return t, nil
}

func (p *parser) unary() (ast.Term, error) {
	if p.tok.kind == tokOp && p.tok.text == "-" {
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		// Constant-fold negative literals.
		if p.tok.kind == tokInt {
			t := ast.Int64(-p.tok.i)
			return t, p.advance()
		}
		if p.tok.kind == tokFloat {
			t := ast.Float64(-p.tok.f)
			return t, p.advance()
		}
		inner, err := p.unary()
		if err != nil {
			return ast.Term{}, err
		}
		return ast.Compound("-", inner), nil
	}
	return p.primary()
}

// primary := int | float | string | Var | '_' | list | '(' expr ')' | ident [ '(' args ')' ]
func (p *parser) primary() (ast.Term, error) {
	switch p.tok.kind {
	case tokInt:
		t := ast.Int64(p.tok.i)
		return t, p.advance()
	case tokFloat:
		t := ast.Float64(p.tok.f)
		return t, p.advance()
	case tokString:
		t := ast.String_(p.tok.text)
		return t, p.advance()
	case tokVar:
		name := p.tok.text
		if name == "_" {
			p.anon++
			name = "_G" + strconv.Itoa(p.anon)
		}
		return ast.Var(name), p.advance()
	case tokLBrack:
		return p.list()
	case tokLParen:
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		t, err := p.expr()
		if err != nil {
			return ast.Term{}, err
		}
		_, err = p.expect(tokRParen, "')'")
		return t, err
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		if p.tok.kind != tokLParen {
			return ast.Symbol(name), nil
		}
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		var args []ast.Term
		if p.tok.kind != tokRParen {
			for {
				a, err := p.expr()
				if err != nil {
					return ast.Term{}, err
				}
				args = append(args, a)
				if p.tok.kind == tokComma {
					if err := p.advance(); err != nil {
						return ast.Term{}, err
					}
					continue
				}
				break
			}
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return ast.Term{}, err
		}
		return ast.Compound(name, args...), nil
	}
	return ast.Term{}, p.errf("expected a term, found %s", p.tok)
}

// list := '[' ']' | '[' expr (',' expr)* [ '|' expr ] ']'
func (p *parser) list() (ast.Term, error) {
	if err := p.advance(); err != nil { // '['
		return ast.Term{}, err
	}
	if p.tok.kind == tokRBrack {
		return ast.Symbol(ast.NilSymbol), p.advance()
	}
	var elems []ast.Term
	for {
		e, err := p.expr()
		if err != nil {
			return ast.Term{}, err
		}
		elems = append(elems, e)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return ast.Term{}, err
			}
			continue
		}
		break
	}
	tail := ast.Symbol(ast.NilSymbol)
	if p.tok.kind == tokBar {
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		t, err := p.expr()
		if err != nil {
			return ast.Term{}, err
		}
		tail = t
	}
	if _, err := p.expect(tokRBrack, "']'"); err != nil {
		return ast.Term{}, err
	}
	return ast.ListWithTail(elems, tail), nil
}
