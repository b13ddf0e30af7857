package serve

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/parser"
)

// Wire protocol of snlogd: newline-delimited JSON over a stream
// transport. A client sends Requests (each with a client-chosen
// non-zero id) and receives Responses carrying the same id, in any
// order. Subscription updates are pushed as Responses with id 0 and a
// non-nil Event. Facts and goals travel in source syntax ("link(a, b)",
// "reach(a, X)") — the same strings the REPL accepts — and answers come
// back the same way.

// Request is one client operation.
type Request struct {
	ID int64 `json:"id"`
	// Op is one of: query, inject, inject_at, delete_at, sync,
	// explain, subscribe, unsubscribe, stats, ping.
	Op string `json:"op"`
	// Arg carries the goal (query, explain), the fact (inject*,
	// delete_at), or the predicate key (subscribe).
	Arg  string `json:"arg,omitempty"`
	Node int    `json:"node,omitempty"`
	At   int64  `json:"at,omitempty"`
	// Sub names the subscription to drop (unsubscribe).
	Sub int64 `json:"sub,omitempty"`
	// Stale takes per-request control of a query's freshness bound,
	// overriding the server default: the answer may omit up to MaxLag
	// acknowledged-but-unapplied writes and the response reports the
	// actual lag (Response.Lag/AsOf). MaxLag < 0 means unbounded, 0
	// means fresh (wait for the in-flight batch). Stale false defers
	// to the server's default bound (fresh unless snlogd runs with
	// -stale).
	Stale  bool  `json:"stale,omitempty"`
	MaxLag int64 `json:"max_lag,omitempty"`
	// TraceID correlates a query/explain with its server-side span
	// records (admin /trace/query/<id>). 0 — and any frame from a
	// client predating the field — lets the server allocate one; the
	// effective id is echoed in Response.TraceID either way.
	TraceID int64 `json:"trace_id,omitempty"`
}

// Response answers one Request (ID echoes the request) or pushes a
// subscription update (ID 0, Event set).
type Response struct {
	ID    int64  `json:"id"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code is the machine-readable error class (see ErrorCode); clients
	// reconstruct the typed sentinel from it instead of grepping
	// messages.
	Code    string           `json:"code,omitempty"`
	Tuples  []string         `json:"tuples,omitempty"`
	Explain string           `json:"explain,omitempty"`
	Sub     int64            `json:"sub,omitempty"`
	Time    int64            `json:"time,omitempty"`
	Stats   map[string]int64 `json:"stats,omitempty"`
	Event   *Event           `json:"event,omitempty"`
	// Batched acknowledges a write that was accepted into the server's
	// coalesced write buffer: validation already ran, the apply+sync
	// happens with the batch. Seq is the write's sequence number; the
	// sync op's Seq reports the last applied one.
	Batched bool  `json:"batched,omitempty"`
	Seq     int64 `json:"seq,omitempty"`
	// Lag/AsOf report a query's freshness bound: Lag acknowledged
	// writes were not yet reflected, the answer is the deductive
	// closure as of virtual time AsOf. Fresh queries report Lag 0.
	Lag  int64 `json:"lag,omitempty"`
	AsOf int64 `json:"as_of,omitempty"`
	// TraceID is the query's effective trace id (the request's, or the
	// one the server allocated); old clients ignore the field.
	TraceID int64 `json:"trace_id,omitempty"`
}

// Event is one pushed subscription update.
type Event struct {
	Sub    int64  `json:"sub"`
	Insert bool   `json:"insert"`
	Tuple  string `json:"tuple"`
}

// Error codes carried in Response.Code, one per validation sentinel.
const (
	CodeBadGoal          = "bad_goal"
	CodeBasePredicate    = "base_predicate"
	CodeArity            = "arity"
	CodeUnknownPredicate = "unknown_predicate"
	CodeDerivedPredicate = "derived_predicate"
	CodeNotGround        = "not_ground"
	CodeBadNode          = "bad_node"
	CodeClosed           = "closed"
	CodeBadRequest       = "bad_request"
	CodeInternal         = "internal"
)

var codeToErr = map[string]error{
	CodeBadGoal:          core.ErrBadGoal,
	CodeBasePredicate:    core.ErrBasePredicate,
	CodeArity:            core.ErrArity,
	CodeUnknownPredicate: core.ErrUnknownPredicate,
	CodeDerivedPredicate: core.ErrDerivedPredicate,
	CodeNotGround:        core.ErrNotGround,
	CodeBadNode:          core.ErrBadNode,
	CodeClosed:           ErrClosed,
}

// ErrorCode classifies err for the wire. The mapping is exhaustive over
// the exported validation sentinels; anything else is internal.
func ErrorCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, core.ErrBadGoal):
		return CodeBadGoal
	case errors.Is(err, core.ErrBasePredicate):
		return CodeBasePredicate
	case errors.Is(err, core.ErrArity):
		return CodeArity
	case errors.Is(err, core.ErrUnknownPredicate):
		return CodeUnknownPredicate
	case errors.Is(err, core.ErrDerivedPredicate):
		return CodeDerivedPredicate
	case errors.Is(err, core.ErrNotGround):
		return CodeNotGround
	case errors.Is(err, core.ErrBadNode):
		return CodeBadNode
	case errors.Is(err, ErrClosed):
		return CodeClosed
	default:
		return CodeInternal
	}
}

// wireError is a server-reported error reconstructed client-side: the
// message is exactly what the server sent (which already ends in the
// sentinel's text on the validation paths) and Unwrap exposes the
// sentinel — the same shape as core.ValidationError, so client and
// in-process callers dispatch identically.
type wireError struct {
	msg  string
	kind error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.kind }

// CodeError reconstructs a typed error from a wire code and message:
// the result unwraps (errors.Is) to the matching sentinel and its
// message is the server's, verbatim. A code-only response (empty
// message) maps a known code to its sentinel directly — the sentinel's
// own human message — rather than stuffing the raw wire code into the
// text ("not_ground: tuple not ground").
func CodeError(code, msg string) error {
	kind, known := codeToErr[code]
	if msg == "" {
		if known {
			return kind
		}
		msg = code
	}
	if known {
		return &wireError{msg: msg, kind: kind}
	}
	return errors.New(msg)
}

// ParseFact parses a ground fact in source syntax ("link(a, b)",
// trailing dot optional) into a tuple — the inject/delete wire format,
// shared with the REPL. The tuple holds no substring of src: a request
// line is not pinned by the facts it stores.
func ParseFact(src string) (eval.Tuple, error) {
	src = strings.TrimSpace(src)
	src = strings.TrimSuffix(src, ".")
	// Tuple.String renders zero-arity facts as "flag()"; the grammar
	// wants a bare atom. Normalize so the wire format is a fixpoint
	// (found by FuzzWire).
	src = strings.TrimSuffix(src, "()")
	lit, err := parser.ParseLiteral(src)
	if err != nil || strings.HasSuffix(strings.TrimSpace(src), ".") {
		// The fact is src + ".", which ParseLiteral does not read when
		// src ends in a '.' of its own; and telling a malformed fact
		// from a rule or a directive takes the whole program.
		prog, perr := parser.Parse(src + ".")
		if perr != nil {
			return eval.Tuple{}, fmt.Errorf("serve: fact %q: %w", src+".", core.ErrBadGoal)
		}
		if len(prog.Rules) != 1 || !prog.Rules[0].IsFact() {
			return eval.Tuple{}, fmt.Errorf("serve: not a ground fact: %s.: %w", src, core.ErrNotGround)
		}
		lit = prog.Rules[0].Head
	}
	for i, a := range lit.Args { // the literal's own slice: clone in place
		if !a.Ground() {
			return eval.Tuple{}, fmt.Errorf("serve: not a ground fact: %s.: %w", src, core.ErrNotGround)
		}
		lit.Args[i] = cloneTerm(a)
	}
	return eval.Tuple{Pred: lit.PredKey(), Args: lit.Args}.Keyed(), nil
}

// cloneTerm copies t's strings, and the argument lists holding them, out
// of the source they were parsed from.
func cloneTerm(t ast.Term) ast.Term {
	t.Str = strings.Clone(t.Str)
	if t.Args != nil {
		args := make([]ast.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = cloneTerm(a)
		}
		t.Args = args
	}
	return t
}

// The codec. A frame is encoded by hand into a reused buffer, byte for
// byte what a json.Encoder writes (HTML escaping and the trailing
// newline included), and decoded by hand, accepting exactly the lines
// json.Unmarshal accepts into the same struct: any key order and
// whitespace, unknown keys, keys matched case-insensitively as
// encoding/json matches them, every string escape. One member list per
// struct drives both directions; FuzzWire holds both to encoding/json.

// member is one object member: its key, a pointer to its field, and
// whether an empty value is left out (`json:",omitempty"`).
type member struct {
	name string
	p    any
	omit bool
}

func (r *Request) members() [9]member {
	return [...]member{{"id", &r.ID, false}, {"op", &r.Op, false}, {"arg", &r.Arg, true},
		{"node", &r.Node, true}, {"at", &r.At, true}, {"sub", &r.Sub, true},
		{"stale", &r.Stale, true}, {"max_lag", &r.MaxLag, true}, {"trace_id", &r.TraceID, true}}
}

const tuplesMember = 4 // the index of "tuples" in Response.members

func (r *Response) members() [15]member {
	return [...]member{{"id", &r.ID, false}, {"ok", &r.OK, false}, {"error", &r.Error, true},
		{"code", &r.Code, true}, {"tuples", &r.Tuples, true}, {"explain", &r.Explain, true},
		{"sub", &r.Sub, true}, {"time", &r.Time, true}, {"stats", &r.Stats, true},
		{"event", &r.Event, true}, {"batched", &r.Batched, true}, {"seq", &r.Seq, true},
		{"lag", &r.Lag, true}, {"as_of", &r.AsOf, true}, {"trace_id", &r.TraceID, true}}
}

func (e *Event) members() [3]member {
	return [...]member{{"sub", &e.Sub, false}, {"insert", &e.Insert, false}, {"tuple", &e.Tuple, false}}
}

// appendRequest appends r's frame to b.
func appendRequest(b []byte, r *Request) []byte {
	ms := r.members()
	return append(appendObject(b, ms[:]), '\n')
}

// appendResponse appends r's frame to b. A non-nil tuples is a query's
// answer already encoded by appendAnswer; it stands in for r.Tuples.
func appendResponse(b []byte, r *Response, tuples []byte) []byte {
	ms := r.members()
	if tuples != nil {
		ms[tuplesMember].p = &tuples
	}
	return append(appendObject(b, ms[:]), '\n')
}

// appendObject appends the members as one JSON object, in order,
// leaving out an empty omitempty one.
func appendObject(b []byte, ms []member) []byte {
	sep := byte('{')
	for _, m := range ms {
		mark := len(b)
		b = append(append(append(b, sep, '"'), m.name...), '"', ':')
		empty := false
		switch p := m.p.(type) {
		case *int64:
			b, empty = strconv.AppendInt(b, *p, 10), *p == 0
		case *int:
			b, empty = strconv.AppendInt(b, int64(*p), 10), *p == 0
		case *bool:
			b, empty = strconv.AppendBool(b, *p), !*p
		case *string:
			b, empty = appendJSONString(b, *p), *p == ""
		case *[]byte:
			b = append(b, *p...)
		case *[]string:
			b, empty = append(b, '['), len(*p) == 0
			for i, s := range *p {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendJSONString(b, s)
			}
			b = append(b, ']')
		case *map[string]int64:
			keys := make([]string, 0, len(*p))
			for k := range *p {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b, empty = append(b, '{'), len(keys) == 0
			for i, k := range keys {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(append(appendJSONString(b, k), ':'), (*p)[k], 10)
			}
			b = append(b, '}')
		case **Event:
			if empty = *p == nil; !empty {
				ems := (*p).members()
				b = appendObject(b, ems[:])
			}
		}
		if empty && m.omit {
			b = b[:mark]
		} else {
			sep = ','
		}
	}
	return append(b, '}')
}

// appendAnswer appends ts as the JSON array of their source-syntax
// renderings, rendering each straight into b; the rare one that needs
// escaping is appended again, escaped.
func appendAnswer(b []byte, ts []eval.Tuple) []byte {
	b = append(b, '[')
	for i, t := range ts {
		if i > 0 {
			b = append(b, ',')
		}
		start := len(b) + 1
		b = t.AppendString(append(b, '"'))
		if plainJSON(b[start:]) {
			b = append(b, '"')
		} else {
			b = appendJSONString(b[:start-1], string(b[start:]))
		}
	}
	return append(b, ']')
}

// plainJSON reports whether s is ASCII that encoding/json copies as is.
func plainJSON(s []byte) bool {
	for _, c := range s {
		if c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes one with HTML escaping on: a short escape where JSON has one,
// \uXXXX for the other control bytes, for <, > and &, for U+2028 and
// U+2029, and (as U+FFFD) for each invalid UTF-8 byte.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c, r, n := s[i], rune(s[i]), 1
		if c >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(s[i:])
		}
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' &&
			r != 0x2028 && r != 0x2029 && (r != utf8.RuneError || n > 1) {
			i += n
			continue
		}
		b = append(b, s[start:i]...)
		if k := strings.IndexByte("\"\\\b\f\n\r\t", c); k >= 0 {
			b = append(b, '\\', `"\bfnrt`[k])
		} else {
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', hex[r>>12&0xF], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
		}
		i += n
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// decodeRequest decodes one request line into r.
func decodeRequest(line string, r *Request) error {
	ms := r.members()
	return decode(line, ms[:])
}

// decodeResponse decodes one response line into r.
func decodeResponse(line string, r *Response) error {
	ms := r.members()
	return decode(line, ms[:])
}

func decode(line string, ms []member) error {
	d := decoder{s: line}
	if !d.word("null") {
		d.object(ms)
	}
	if d.ws() {
		d.fail("data after the frame")
	}
	return d.err
}

// decoder reads one frame. The first error stops it, and what it stored
// before stays, as json.Unmarshal keeps it. A string with no escape and
// no invalid UTF-8 is a substring of the line, not a copy.
type decoder struct {
	s     string
	i     int
	err   error
	depth int // open objects and arrays; encoding/json allows 10000
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: offset %d: %s", d.i, what)
	}
}

// ws skips whitespace and reports whether input is left; false after
// an error.
func (d *decoder) ws() bool {
	for ; d.err == nil && d.i < len(d.s); d.i++ {
		if c := d.s[d.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return true
		}
	}
	return false
}

// eat consumes w if the input goes on with it; word does so after
// whitespace.
func (d *decoder) eat(w string) bool {
	ok := d.err == nil && strings.HasPrefix(d.s[d.i:], w)
	if ok {
		d.i += len(w)
	}
	return ok
}

func (d *decoder) word(w string) bool { return d.ws() && d.eat(w) }

// list reads an object or an array, calling elem for each member or
// element.
func (d *decoder) list(open, close string, elem func()) {
	if !d.word(open) {
		d.fail("want " + open)
	} else if d.depth++; d.depth > 10000 {
		d.fail("nested too deep")
	}
	for n := 0; d.err == nil && !d.word(close); n++ {
		if n > 0 && !d.word(",") {
			d.fail("want , or " + close)
		}
		elem()
	}
	d.depth--
}

// object decodes an object into the fields ms points to, skipping a
// member whose key names none.
func (d *decoder) object(ms []member) {
	d.list("{", "}", func() {
		k := d.string()
		if !d.word(":") {
			d.fail("want :")
		}
		var p any
		for _, m := range ms {
			if k == m.name || strings.EqualFold(k, m.name) { // no two names fold alike
				p = m.p
			}
		}
		d.value(p)
	})
}

// value decodes the next value into the field p points to, or skips it
// when p is nil, with json.Unmarshal's semantics: null leaves a scalar
// as it is and sets a slice, map or pointer to nil, and a repeated key
// decodes over what the earlier one stored.
func (d *decoder) value(p any) {
	if d.err != nil {
		return
	}
	if d.word("null") {
		switch p := p.(type) {
		case *[]string:
			*p = nil
		case *map[string]int64:
			*p = nil
		case **Event:
			*p = nil
		}
		return
	}
	switch p := p.(type) {
	case *int64:
		*p = d.int(*p, 64)
	case *int:
		*p = int(d.int(int64(*p), strconv.IntSize))
	case *bool:
		switch {
		case d.word("true"):
			*p = true
		case d.word("false"):
			*p = false
		default:
			d.fail("want a boolean")
		}
	case *string:
		if s := d.string(); d.err == nil {
			*p = s
		}
	case *[]string:
		ts, n := *p, 0
		if ts == nil {
			c := *d // count the elements first: one allocation
			c.list("[", "]", func() { c.value(nil); n++ })
			ts = make([]string, 0, n)
		}
		i := 0
		d.list("[", "]", func() {
			if i == cap(ts) {
				ts = append(ts, "")
			}
			ts = ts[:max(i+1, len(ts))]
			d.value(&ts[i])
			i++
		})
		if *p = ts[:i]; i == 0 {
			*p = []string{}
		}
	case *map[string]int64:
		if *p == nil {
			*p = make(map[string]int64)
		}
		m := *p
		d.list("{", "}", func() {
			var n int64
			k := d.string()
			if !d.word(":") {
				d.fail("want :")
			}
			if d.value(&n); d.err == nil {
				m[k] = n
			}
		})
	case **Event:
		if *p == nil {
			*p = new(Event)
		}
		ms := (*p).members()
		d.object(ms[:])
	case nil: // skip
		switch {
		case !d.ws():
			d.fail("want a value")
		case d.s[d.i] == '{':
			d.object(nil)
		case d.s[d.i] == '[':
			d.list("[", "]", func() { d.value(nil) })
		case d.s[d.i] == '"':
			d.string()
		case d.word("true"), d.word("false"):
		default:
			d.number()
		}
	}
}

// int reads an integer of the given width; after an error it returns
// old.
func (d *decoder) int(old int64, bits int) int64 {
	n, err := strconv.ParseInt(d.number(), 10, bits)
	if err != nil {
		d.fail("want an integer")
	}
	if d.err != nil {
		return old
	}
	return n
}

// number reads a number, checked against the JSON grammar.
func (d *decoder) number() string {
	d.ws()
	start := d.i
	d.eat("-")
	ok := d.eat("0") || d.digits()
	if d.eat(".") {
		ok = d.digits() && ok
	}
	if d.eat("e") || d.eat("E") {
		_ = d.eat("+") || d.eat("-")
		ok = d.digits() && ok
	}
	if !ok {
		d.fail("want a value")
	}
	return d.s[start:d.i]
}

func (d *decoder) digits() bool {
	start := d.i
	for d.i < len(d.s) && '0' <= d.s[d.i] && d.s[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// string reads a string: a substring of the line, or — when it holds
// an escape or invalid UTF-8 — a copy, decoded as encoding/json decodes
// it (each invalid byte becomes U+FFFD).
func (d *decoder) string() string {
	if !d.word(`"`) {
		d.fail("want a string")
		return ""
	}
	start := d.i
	var b []byte // the copy, once one is needed
	for d.i < len(d.s) {
		c, r, n := d.s[d.i], rune(-1), 1 // r >= 0 replaces the n input bytes
		switch {
		case c == '"':
			if d.i++; b == nil {
				return d.s[start : d.i-1]
			}
			return string(b)
		case c < 0x20:
			d.fail("control byte in a string")
			return ""
		case c == '\\':
			if r, n = d.escape(); r < 0 {
				d.fail("bad escape")
				return ""
			}
		case c >= utf8.RuneSelf:
			if r, n = utf8.DecodeRuneInString(d.s[d.i:]); r != utf8.RuneError || n > 1 {
				r = -1 // valid UTF-8 stands as it is
			}
		}
		switch {
		case r >= 0 && b == nil:
			b = append(make([]byte, 0, 2*(d.i-start)+utf8.UTFMax), d.s[start:d.i]...)
			b = utf8.AppendRune(b, r)
		case r >= 0:
			b = utf8.AppendRune(b, r)
		case b != nil:
			b = append(b, d.s[d.i:d.i+n]...)
		}
		d.i += n
	}
	d.fail("unterminated string")
	return ""
}

// escape decodes the escape at d.i: its rune and length, or -1. A
// surrogate pair is one rune and a lone surrogate U+FFFD, as in
// encoding/json.
func (d *decoder) escape() (rune, int) {
	s := d.s[d.i:]
	if len(s) > 1 {
		if k := strings.IndexByte(`"\/bfnrt`, s[1]); k >= 0 {
			return rune("\"\\/\b\f\n\r\t"[k]), 2
		}
	}
	r := hex4(s)
	if r < 0 || !utf16.IsSurrogate(r) {
		return r, 6
	}
	if r2 := utf16.DecodeRune(r, hex4(s[6:])); r2 != unicode.ReplacementChar {
		return r2, 12
	}
	return unicode.ReplacementChar, 6
}

// hex4 returns the value of the \uXXXX escape s starts with, or -1.
func hex4(s string) rune {
	if len(s) < 6 || !strings.HasPrefix(s, `\u`) {
		return -1
	}
	n, err := strconv.ParseUint(s[2:6], 16, 32)
	if err != nil {
		return -1
	}
	return rune(n)
}
