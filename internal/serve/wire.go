package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
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

// wireCodes pairs each validation sentinel with its wire code. ErrorCode
// walks it in order (the first sentinel err matches names it); CodeError
// looks a code up in it.
var wireCodes = [...]struct {
	code string
	err  error
}{
	{CodeBadGoal, core.ErrBadGoal},
	{CodeBasePredicate, core.ErrBasePredicate},
	{CodeArity, core.ErrArity},
	{CodeUnknownPredicate, core.ErrUnknownPredicate},
	{CodeDerivedPredicate, core.ErrDerivedPredicate},
	{CodeNotGround, core.ErrNotGround},
	{CodeBadNode, core.ErrBadNode},
	{CodeClosed, ErrClosed},
}

// ErrorCode classifies err for the wire. The mapping is exhaustive over
// the exported validation sentinels; anything else is internal.
func ErrorCode(err error) string {
	if err == nil {
		return ""
	}
	for _, w := range wireCodes {
		if errors.Is(err, w.err) {
			return w.code
		}
	}
	return CodeInternal
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
	for _, w := range wireCodes {
		if w.code != code {
			continue
		}
		if msg == "" {
			return w.err
		}
		return &wireError{msg: msg, kind: w.err}
	}
	if msg == "" {
		msg = code
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
// newline included). A line is decoded by a reader for that form —
// members in table order, no whitespace, no null, no escape — which
// shares the line's strings; any other line goes to json.Unmarshal, so
// a frame another encoder writes decodes as encoding/json decodes it.
// One member list per struct drives both directions: its key table
// (requestKeys, responseKeys, eventKeys) and its fields method, which
// returns a pointer to each member's field in the table's order. The
// tables are static, and fields is small enough to be inlined, so a
// frame's member list is built in place in its encoder's or decoder's
// frame: no table is built elsewhere and copied in. FuzzWire holds both
// directions to encoding/json; TestWireMembersFollowTags holds the lists
// to the structs' json tags.

// key is one object member's key, and whether an empty value is left
// out (`json:",omitempty"`).
type key struct {
	name string
	omit bool
}

var requestKeys = [...]key{{"id", false}, {"op", false}, {"arg", true},
	{"node", true}, {"at", true}, {"sub", true},
	{"stale", true}, {"max_lag", true}, {"trace_id", true}}

func (r *Request) fields() [len(requestKeys)]any {
	return [...]any{&r.ID, &r.Op, &r.Arg, &r.Node, &r.At, &r.Sub, &r.Stale, &r.MaxLag, &r.TraceID}
}

const tuplesMember = 4 // the index of "tuples" in responseKeys

var responseKeys = [...]key{{"id", false}, {"ok", false}, {"error", true},
	{"code", true}, {"tuples", true}, {"explain", true},
	{"sub", true}, {"time", true}, {"stats", true},
	{"event", true}, {"batched", true}, {"seq", true},
	{"lag", true}, {"as_of", true}, {"trace_id", true}}

func (r *Response) fields() [len(responseKeys)]any {
	return [...]any{&r.ID, &r.OK, &r.Error, &r.Code, &r.Tuples, &r.Explain, &r.Sub, &r.Time,
		&r.Stats, &r.Event, &r.Batched, &r.Seq, &r.Lag, &r.AsOf, &r.TraceID}
}

var eventKeys = [...]key{{"sub", false}, {"insert", false}, {"tuple", false}}

func (e *Event) fields() [len(eventKeys)]any {
	return [...]any{&e.Sub, &e.Insert, &e.Tuple}
}

// appendRequest appends r's frame to b.
func appendRequest(b []byte, r *Request) []byte {
	ps := r.fields()
	return append(appendObject(b, requestKeys[:], ps[:]), '\n')
}

// appendResponse appends r's frame to b. A non-nil tuples is a query's
// answer already encoded by appendAnswer; it stands in for r.Tuples.
func appendResponse(b []byte, r *Response, tuples []byte) []byte {
	ps := r.fields()
	if tuples != nil {
		ps[tuplesMember] = &tuples
	}
	return append(appendObject(b, responseKeys[:], ps[:]), '\n')
}

// appendObject appends the members as one JSON object, in order: key
// i's value is the field ps[i] points to. An empty omitempty member is
// left out.
func appendObject(b []byte, keys []key, ps []any) []byte {
	sep := byte('{')
	for i, k := range keys {
		mark := len(b)
		b = append(append(append(b, sep, '"'), k.name...), '"', ':')
		empty := false
		switch p := ps[i].(type) {
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
				eps := (*p).fields()
				b = appendObject(b, eventKeys[:], eps[:])
			}
		}
		if empty && k.omit {
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

// decodeRequest decodes one request line into r, a zero Request.
func decodeRequest(line string, r *Request) error {
	ps := r.fields()
	if readFrame(line, requestKeys[:], ps[:]) {
		return nil
	}
	return unmarshal(line, r)
}

// decodeResponse decodes one response line into r, a zero Response.
func decodeResponse(line string, r *Response) error {
	ps := r.fields()
	if readFrame(line, responseKeys[:], ps[:]) {
		return nil
	}
	return unmarshal(line, r)
}

// unmarshal decodes a line the reader did not read with encoding/json,
// into a zero value. That value replaces *r when json.Unmarshal takes
// the line, and when it only fails to store a value of the wrong type
// (it decodes the rest, so an id past a bad member is read). On a syntax
// error json.Unmarshal stores nothing, and what the reader stored before
// it stopped stands: a frame of ours cut off keeps its id.
func unmarshal[T any](line string, r *T) error {
	var v T
	err := json.Unmarshal([]byte(line), &v)
	var te *json.UnmarshalTypeError
	if err == nil || errors.As(err, &te) {
		*r = v
	}
	return err
}

// readFrame reads line as the frame appendObject writes into the fields
// ps points to, and reports whether line is in that form.
func readFrame(line string, keys []key, ps []any) bool {
	r := reader{s: line}
	return r.object(keys, ps) && r.i == len(line)
}

// reader reads the form appendObject writes: no whitespace and no null,
// an object's members in its key table's order (each present or left
// out), integers as strconv.AppendInt writes them, strings with no
// escape and valid UTF-8. Each method reports whether the input was in
// that form, and a value is stored only once it has been read. A string
// is a substring of the line, not a copy.
type reader struct {
	s string
	i int
}

// next consumes the byte c if the input goes on with it.
func (r *reader) next(c byte) bool {
	ok := r.i < len(r.s) && r.s[r.i] == c
	if ok {
		r.i++
	}
	return ok
}

// word consumes w if the input goes on with it.
func (r *reader) word(w string) bool {
	ok := strings.HasPrefix(r.s[r.i:], w)
	if ok {
		r.i += len(w)
	}
	return ok
}

// list reads open, then elements, each read by elem and separated by
// commas, then close.
func (r *reader) list(open, close byte, elem func() bool) bool {
	if !r.next(open) {
		return false
	}
	if r.next(close) {
		return true
	}
	for elem() {
		if r.next(close) {
			return true
		}
		if !r.next(',') {
			return false
		}
	}
	return false
}

// object reads an object into the fields ps points to, in keys' order.
func (r *reader) object(keys []key, ps []any) bool {
	k := 0 // the first member the next key may name
	return r.list('{', '}', func() bool {
		name, ok := r.string()
		for ok && k < len(keys) && keys[k].name != name {
			k++
		}
		if !ok || k == len(keys) || !r.next(':') {
			return false
		}
		k++
		return r.value(ps[k-1])
	})
}

// value reads a value into the field p points to.
func (r *reader) value(p any) bool {
	switch p := p.(type) {
	case *int64:
		n, ok := r.int(64)
		if ok {
			*p = n
		}
		return ok
	case *int:
		n, ok := r.int(strconv.IntSize)
		if ok {
			*p = int(n)
		}
		return ok
	case *bool:
		t := r.word("true")
		if t || r.word("false") {
			*p = t
			return true
		}
		return false
	case *string:
		s, ok := r.string()
		if ok {
			*p = s
		}
		return ok
	case *[]string:
		// Counted on a copy of the reader first: one allocation.
		ts := make([]string, 0, r.count())
		ok := r.list('[', ']', func() bool {
			s, ok := r.string()
			if ok {
				ts = append(ts, s)
			}
			return ok
		})
		if ok {
			*p = ts
		}
		return ok
	case *map[string]int64:
		m := make(map[string]int64)
		ok := r.list('{', '}', func() bool {
			k, ok := r.string()
			if !ok || !r.next(':') {
				return false
			}
			m[k], ok = r.int(64)
			return ok
		})
		if ok {
			*p = m
		}
		return ok
	case **Event:
		e := new(Event)
		eps := e.fields()
		ok := r.object(eventKeys[:], eps[:])
		if ok {
			*p = e
		}
		return ok
	}
	return false
}

// count returns the number of strings the array at r.i starts with. It
// works on a copy of the reader.
func (r reader) count() int {
	n := 0
	r.list('[', ']', func() bool {
		_, ok := r.string()
		if ok {
			n++
		}
		return ok
	})
	return n
}

// int reads an integer of the given bit size, written with no leading
// zero and no minus sign before 0.
func (r *reader) int(bits int) (int64, bool) {
	start := r.i
	r.next('-')
	digits := r.i
	for r.i < len(r.s) && '0' <= r.s[r.i] && r.s[r.i] <= '9' {
		r.i++
	}
	if r.i == digits || r.s[digits] == '0' && (r.i > digits+1 || digits > start) {
		return 0, false
	}
	n, err := strconv.ParseInt(r.s[start:r.i], 10, bits)
	return n, err == nil
}

// string reads a string with no escape and valid UTF-8.
func (r *reader) string() (string, bool) {
	if !r.next('"') {
		return "", false
	}
	start := r.i
	for i := plainRun(r.s, start); i < len(r.s); i = plainRun(r.s, i) {
		switch c := r.s[i]; {
		case c == '"':
			r.i = i + 1
			return r.s[start:i], true
		case c < utf8.RuneSelf: // a backslash or a control byte
			return "", false
		}
		rn, n := utf8.DecodeRuneInString(r.s[i:])
		if rn == utf8.RuneError && n == 1 {
			return "", false
		}
		i += n
	}
	return "", false
}

// plainRun returns the index of the first byte of s from i on that does
// not stand for itself in a JSON string, or len(s): the plain bytes are
// ASCII from space up, but for the quote and the backslash. While eight
// bytes are left it tests them as one word: a byte is flagged when its
// top bit is set, when it is below a space, or when it is a quote or a
// backslash (zero once XORed with one). A borrow can flag a byte above a
// flagged one, never the lowest.
func plainRun(s string, i int) int {
	const ones, tops = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(s); i += 8 {
		w := s[i : i+8]
		x := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
			uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
		q, b := x^(ones*'"'), x^(ones*'\\')
		if m := (x | (x-ones*' ')&^x | (q-ones)&^q | (b-ones)&^b) & tops; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for i < len(s) && ' ' <= s[i] && s[i] < utf8.RuneSelf && s[i] != '"' && s[i] != '\\' {
		i++
	}
	return i
}
