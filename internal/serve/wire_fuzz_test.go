package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datalog/eval"
)

// FuzzWire hammers the newline-delimited JSON wire codec with
// malformed JSON, truncated lines, oversized payloads and bogus error
// codes, holding the hand codec to encoding/json, its reference. The
// decoder is two parts: a reader for the form the encoder writes, and
// json.Unmarshal for every line the reader does not take. The
// properties pinned:
//
//   - Decoding never panics, whatever the bytes.
//   - decodeRequest and decodeResponse accept exactly the lines
//     json.Unmarshal accepts into the same struct, with an equal value:
//     the reader and encoding/json agree on every line the reader
//     takes, and a line that leaves the encoder's form at any member —
//     key order, case or repetition, unknown keys, whitespace, null,
//     escapes, invalid UTF-8, numbers written another way, a frame cut
//     off — is handed over whole.
//   - appendRequest(nil, &v) and appendResponse(nil, &v, nil) are
//     json.Marshal(&v) plus '\n' for every decoded v, and decode back
//     to v; the frame reader takes them unless a string in them holds
//     an escape.
//   - CodeError(code, msg) reconstructs an error whose ErrorCode maps
//     back to the same code for every known code; unknown codes
//     degrade to an untyped error (classified internal), never a
//     panic.
//   - ParseFact never panics; when it accepts a fact, re-parsing the
//     tuple's rendering yields the identical canonical key (the
//     inject wire format is a fixpoint), and appendAnswer encodes the
//     tuple as encoding/json encodes its rendering.
//
// `make fuzz-smoke` runs this target for a few seconds on every
// verify.
func FuzzWire(f *testing.F) {
	// Seed corpus: the shapes server_test.go sends, plus truncated,
	// oversized, hostile and escape-heavy variants.
	seeds := []string{
		`{"id":1,"op":"ping"}`,
		`{"id":2,"op":"query","arg":"reach(a, X)"}`,
		`{"id":3,"op":"query","arg":"reach(a, X)","stale":true,"max_lag":-1}`,
		`{"id":3,"op":"query","arg":"reach(a, X)","trace_id":99}`,
		`{"id":8,"op":"explain","arg":"reach(a, c)","trace_id":-7}`,
		`{"id":4,"op":"inject","node":0,"arg":"link(a, b)"}`,
		`{"id":5,"op":"inject_at","at":100,"node":3,"arg":"link(b, c)"}`,
		`{"id":6,"op":"delete_at","at":200,"node":0,"arg":"link(a, b)"}`,
		`{"id":7,"op":"sync"}`,
		`{"id":8,"op":"explain","arg":"reach(a, c)"}`,
		`{"id":9,"op":"subscribe","arg":"reach/2"}`,
		`{"id":10,"op":"unsubscribe","sub":1}`,
		`{"id":11,"op":"stats"}`,
		`{"id":1,"ok":true,"tuples":["reach(a, b)","reach(a, c)"],"lag":2,"as_of":17}`,
		`{"id":1,"ok":true,"tuples":["reach(a, b)"],"trace_id":42}`,
		`{"id":4,"ok":true,"batched":true,"seq":9}`,
		`{"id":0,"ok":true,"event":{"sub":1,"insert":true,"tuple":"reach(a, b)"}}`,
		`{"id":2,"ok":false,"error":"no","code":"unknown_predicate"}`,
		`{"id":2,"ok":false,"error":"??","code":"definitely_not_a_code"}`,
		`{"id":3,"op":"query","arg":"`, // truncated mid-string
		`{"id":`,                       // truncated mid-number
		`not json at all`,
		`{}`,
		``,
		`{"id":12,"op":"inject","arg":"` + strings.Repeat("x", 1<<16) + `(a)"}`, // oversized payload
		`{"id":13,"op":"query","arg":"reach(a"}`,
		`{"id":14,"op":"inject","arg":"link(X, b)"}`,
		"\x00\x01\x02",
		`[1,2,3]`,
		`"just a string"`,
		// Escaping, both directions.
		`{"id":5,"ok":true,"explain":"reach(a, c)\n  link(a, b)\n  reach(b, c)\n    link(b, c)\n"}`,
		`{"id":6,"ok":true,"tuples":["says(a, \"hi \\\"there\\\"\")","m(\"<b>&amp;</b>\")"]}`,
		`{"id":7,"op":"inject","arg":"m(\"<&>\")"}`,
		"{\"id\":8,\"ok\":true,\"tuples\":[\"p(\\\"\u2028\u2029\\\")\"]}",
		"{\"id\":9,\"op\":\"query\",\"arg\":\"p(\xff\xfe, \xc3)\"}",
		`{"id":10,"op":"query","arg":"p(é, 😀, \ud800, \udc00x)\/\b\f\r\t"}`,
		`{"ID":11,"Op":"PING","TRACE_ID":3,"Max_Lag":1}`,
		"{\"ſub\":4,\"id\":1}",
		`{"id":12,"ok":true,"stats":{"serve.queries":3,"serve.cache.hits":1,"a<b":-2,"z":null}}`,
		`{"id":13,"ok":true,"tuples":["a","b"],"tuples":[null],"stats":{"x":1},"stats":{"y":2}}`,
		`{"id":14,"ok":true,"event":{"sub":1},"event":{"insert":true},"tuples":[]}`,
		`{"id":15,"ok":null,"tuples":null,"event":null,"stats":null,"unknown":[{"a":[1.5e-3,true,false,null,"s"]}]}`,
		` null `,
		`{"id":1.0}`,
		`{"id":1e2}`,
		`{"id":-0,"node":9223372036854775807,"at":9223372036854775808}`,
		`{"id":1,"op":"ping"} x`,
		`{"id":1,}`,
		`{"id":01}`,
		`{"arg":"\u12"}`,
		`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,   // 10000 levels: the limit
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, // one past it
		`{"\u0069d":5,"id":6,"ID":7,"tuples":["\ud800\u0041","\udc00\udc00","\ud83d\ude00"]}`,
	}
	// The decoder's plain-string fast path hands over at the first byte
	// it does not cover: each such byte class — a quote, a backslash, a
	// control byte raw and escaped, a valid non-ASCII rune, invalid
	// UTF-8 — at the first, a middle and the last byte of an element,
	// in a string array and in a request string.
	for _, x := range []string{`\"`, `\\`, `\n`, "\x01", `\u0001`, "é", "😀", "\xff", "\xe2\x82"} {
		for _, e := range []string{x + "reach(a, b)", "reach(a" + x + ", b)", "reach(a, b)" + x} {
			seeds = append(seeds,
				`{"id":1,"ok":true,"tuples":["p(a)","`+e+`","q(b)"]}`,
				`{"id":1,"ok":true,"tuples":["`+e+`"]}`,
				`{"id":1,"op":"query","arg":"`+e+`"}`)
		}
	}
	// The same classes, DEL and a space (plain bytes at the ends of the
	// plain range) too, at every offset of an eight-byte word.
	for k := 0; k < 17; k++ {
		for _, x := range []string{`\"`, `\\`, "\x1f", " ", "\x7f", "é", "\xff"} {
			seeds = append(seeds, `{"tuples":["`+strings.Repeat("a", k)+x+`b"],"op":"`+strings.Repeat("o", k)+x+`"}`)
		}
	}
	seeds = append(seeds,
		// Whitespace around the array's commas and brackets.
		"{\"id\":1,\"tuples\": [ \"a\" , \"b\"\t,\r\n\"c\" ] ,\"ok\":true}",
		`{"tuples":["a" ,"b", "c"]}`,
		`{"tuples":["a"`+"\t"+`]}`,
		// null elements, and empty arrays.
		`{"tuples":[null]}`,
		`{"tuples":["a",null,"b",null]}`,
		`{"tuples":[]}`,
		`{"tuples":[ ]}`,
		`{"tuples":[],"tuples":["a"]}`,
		// A second "tuples" decodes over the first one's slice: a null
		// element keeps what the earlier array left there.
		`{"tuples":["a","b","c"],"tuples":["x",null]}`,
		`{"tuples":["a","b"],"tuples":[null,null,null,null]}`,
		`{"tuples":["a","b","c"],"tuples":["x"],"tuples":[null,null,null,null,null]}`,
		`{"tuples":["a"],"Tuples":[]}`,
		// What ends the count early: a non-string element, a missing
		// comma, a trailing comma, an unterminated array or string.
		`{"tuples":["a",1]}`,
		`{"tuples":["a",["b"]]}`,
		`{"tuples":["a" "b"]}`,
		`{"tuples":["a",]}`,
		`{"tuples":["a",`,
		`{"tuples":["a\"`,
		`{"tuples":["a\\"]}`,
	)
	seeds = append(seeds, offCanonical()...)
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		// Request: the hand codec against encoding/json.
		var req, jreq Request
		if differ(t, line, json.Unmarshal(line, &jreq), decodeRequest(string(line), &req)) {
			if req != jreq {
				t.Fatalf("%q decodes to %+v, encoding/json says %+v", line, req, jreq)
			}
			out := appendRequest(nil, &req)
			sameBytes(t, out, &req)
			var read Request
			rps := read.fields()
			readsOwn(t, out, readFrame(string(out[:len(out)-1]), requestKeys[:], rps[:]))
			var again Request
			if err := decodeRequest(string(out), &again); err != nil || again != req {
				t.Fatalf("request round trip: %+v -> %q -> %+v, %v", req, out, again, err)
			}
		}
		// Response: the same, plus the error-code round trip.
		var resp, jresp Response
		if differ(t, line, json.Unmarshal(line, &jresp), decodeResponse(string(line), &resp)) {
			if !reflect.DeepEqual(resp, jresp) {
				t.Fatalf("%q decodes to %+v, encoding/json says %+v", line, resp, jresp)
			}
			out := appendResponse(nil, &resp, nil)
			sameBytes(t, out, &resp)
			var read Response
			sps := read.fields()
			readsOwn(t, out, readFrame(string(out[:len(out)-1]), responseKeys[:], sps[:]))
			var again Response
			if err := decodeResponse(string(out), &again); err != nil || !responseEqual(&resp, &again) {
				t.Fatalf("response round trip: %+v -> %q -> %+v, %v", resp, out, again, err)
			}
			// Error-code round-trip: rebuilding the typed error from a
			// known wire code must classify back to the same code.
			if resp.Code != "" {
				err := CodeError(resp.Code, resp.Error)
				if err == nil {
					t.Fatalf("CodeError(%q) = nil", resp.Code)
				}
				if _, known := codeToErr[resp.Code]; known {
					if got := ErrorCode(err); got != resp.Code {
						t.Fatalf("code %q round-tripped to %q", resp.Code, got)
					}
				} else if got := ErrorCode(err); got != CodeInternal {
					t.Fatalf("unknown code %q classified %q, want internal", resp.Code, got)
				}
			}
		}
		// ParseFact: no panic; accepted facts are a rendering fixpoint,
		// and their answer encoding is encoding/json's.
		if tup, err := ParseFact(string(line)); err == nil {
			again, err := ParseFact(tup.String())
			if err != nil {
				t.Fatalf("accepted fact %q re-parse failed: %v", tup.String(), err)
			}
			if again.Key() != tup.Key() {
				t.Fatalf("fact key drift: %q -> %q", tup.Key(), again.Key())
			}
			want, _ := json.Marshal([]string{tup.String(), again.String()})
			if got := appendAnswer(nil, []eval.Tuple{tup, again}); string(got) != string(want) {
				t.Fatalf("answer encoding %s, encoding/json %s", got, want)
			}
		} else if !errors.Is(err, ErrClosed) && err.Error() == "" {
			t.Fatal("ParseFact returned an empty error")
		}
	})
}

// offCanonical returns frames that leave the encoder's form at one
// member each, of a request, a response and an event: the member moved,
// repeated, its key's case changed or an unknown key put before it, a
// space, a null or an escape in it, an integer written 1.0, 01 or -0,
// and the frame cut off after it.
func offCanonical() []string {
	request := []string{`"id":7`, `"op":"query"`, `"arg":"reach(a, X)"`, `"node":3`, `"at":100`,
		`"sub":2`, `"stale":true`, `"max_lag":-1`, `"trace_id":9`}
	response := []string{`"id":1`, `"ok":true`, `"error":"e"`, `"code":"arity"`,
		`"tuples":["reach(a, b)","reach(a, c)"]`, `"explain":"x"`, `"sub":4`, `"time":5`,
		`"stats":{"a":1,"b":-2}`, `"event":{"sub":1,"insert":true,"tuple":"reach(a, b)"}`,
		`"batched":true`, `"seq":6`, `"lag":2`, `"as_of":17`, `"trace_id":42`}
	event := []string{`"sub":1`, `"insert":true`, `"tuple":"reach(a, b)"`}
	var out []string
	for _, c := range []struct {
		members    []string
		head, tail string
	}{
		{request, "{", "}"},
		{response, "{", "}"},
		{event, `{"id":0,"ok":true,"event":{`, "}}"},
	} {
		with := func(i int, m ...string) string { // m in place of member i
			ms := append(append(slices.Clone(c.members[:i]), m...), c.members[i+1:]...)
			return c.head + strings.Join(ms, ",") + c.tail
		}
		for i, m := range c.members {
			k, v, _ := strings.Cut(m, ":")
			out = append(out,
				with(i, c.members[(i+1)%len(c.members)], m), // moved
				with(i, m, m),
				with(i, strings.ToUpper(k)+":"+v),
				with(i, `"zz":1`, m),
				with(i, k+": "+v),
				with(i, k+":null"),
				with(i, `"\u00`+fmt.Sprintf("%02x", k[1])+k[2:]+":"+v),
				c.head+strings.Join(c.members[:i+1], ","))
			if _, err := strconv.ParseInt(v, 10, 64); err == nil {
				out = append(out, with(i, k+":1.0"), with(i, k+":01"), with(i, k+":-0"))
			}
			if strings.HasPrefix(v, `"`) {
				out = append(out, with(i, k+`:"\u0041`+v[1:]), with(i, k+`: `+v+` `))
			}
		}
	}
	return out
}

// Each of offCanonical's frames is handed to encoding/json: the frame
// reader takes none of them, as a request or as a response.
func TestOffCanonicalLeavesTheReader(t *testing.T) {
	for _, line := range offCanonical() {
		var req Request
		var resp Response
		rps, sps := req.fields(), resp.fields()
		if readFrame(line, requestKeys[:], rps[:]) || readFrame(line, responseKeys[:], sps[:]) {
			t.Errorf("the frame reader takes %s", line)
		}
	}
}

// differ fails the test when encoding/json and the hand decoder
// disagree on whether line is a frame, and reports whether both took
// it.
func differ(t *testing.T, line []byte, jerr, err error) bool {
	t.Helper()
	if (jerr == nil) != (err == nil) {
		t.Fatalf("%q: encoding/json says %v, the hand decoder %v", line, jerr, err)
	}
	return err == nil
}

// readsOwn fails the test unless the frame reader took out, a frame of
// the encoder's, when none of its strings holds an escape.
func readsOwn(t *testing.T, out []byte, took bool) {
	t.Helper()
	if !took && !bytes.ContainsRune(out, '\\') {
		t.Fatalf("the frame reader does not take the encoder's %q", out)
	}
}

// sameBytes fails the test unless out is what a json.Encoder writes
// for v.
func sameBytes(t *testing.T, out []byte, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(out, want) {
		t.Fatalf("encoded %q, encoding/json %q", out, want)
	}
}

// responseEqual compares two responses field-wise (slices, maps and
// the event pointer by content).
func responseEqual(a, b *Response) bool {
	if a.ID != b.ID || a.OK != b.OK || a.Error != b.Error || a.Code != b.Code ||
		a.Explain != b.Explain || a.Sub != b.Sub || a.Time != b.Time ||
		a.Batched != b.Batched || a.Seq != b.Seq || a.Lag != b.Lag || a.AsOf != b.AsOf ||
		a.TraceID != b.TraceID {
		return false
	}
	if len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if a.Tuples[i] != b.Tuples[i] {
			return false
		}
	}
	if len(a.Stats) != len(b.Stats) {
		return false
	}
	for k, v := range a.Stats {
		if b.Stats[k] != v {
			return false
		}
	}
	if (a.Event == nil) != (b.Event == nil) {
		return false
	}
	if a.Event != nil && *a.Event != *b.Event {
		return false
	}
	return true
}

// The scanner side of the codec: a line above the server's buffer cap
// must not wedge the connection handler (the scanner errors out and
// the handler drops the connection — pinned here at the unit level so
// the fuzz target's oversized seeds mean something end to end).
func TestWireOversizedLine(t *testing.T) {
	big := append([]byte(`{"id":1,"op":"query","arg":"`), bytes.Repeat([]byte("a"), 2<<20)...)
	big = append(big, []byte(`"}`)...)
	var req Request
	// Decoding itself is fine — the transport cap, not the codec,
	// rejects oversized lines.
	if err := json.Unmarshal(big, &req); err != nil {
		t.Fatalf("oversized but well-formed line failed to decode: %v", err)
	}
	if len(req.Arg) != 2<<20 {
		t.Fatalf("arg truncated: %d", len(req.Arg))
	}
}

// A frame of many short escaped strings leaves the frame reader's form,
// goes to encoding/json, and decodes in memory linear in its length. A
// hand decoder that sized each unquoted copy from the rest of the line
// allocated 188 MB for this one.
func TestWireDecodeEscapedStringsLinear(t *testing.T) {
	line := `{"id":1,"tuples":[` + strings.Repeat(`"a\nb",`, 5000) + `"x"]}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var r Response
	if err := decodeResponse(line, &r); err != nil || len(r.Tuples) != 5001 {
		t.Fatalf("%d tuples, %v", len(r.Tuples), err)
	}
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, 20*uint64(len(line)); got > bound {
		t.Fatalf("decoding a %d-byte frame allocated %d bytes, bound %d", len(line), got, bound)
	}
}

// An escape-free string, non-ASCII included, is a substring of the
// line: decoding a reply allocates the same for 2 tuples as for 30.
func TestWireDecodeSharesTheLine(t *testing.T) {
	frame := func(n int) string {
		ts := make([]string, n)
		for i := range ts {
			ts[i] = fmt.Sprintf("reach(é%d, s%d)", i, i)
		}
		b, err := json.Marshal(&Response{ID: 1, OK: true, Tuples: ts})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	allocs := func(line string) float64 {
		return testing.AllocsPerRun(100, func() {
			var r Response
			if err := decodeResponse(line, &r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(frame(2)), allocs(frame(30)); few != many {
		t.Fatalf("decoding 2 tuples allocates %v, 30 tuples %v: the strings are copied", few, many)
	}
}
