package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// A client predating the trace_id field must keep working unchanged,
// and a server answering it must not change what the old client sees
// beyond one ignorable extra field. The frames are pinned as literal
// bytes — the exact encodings the PR-9 client emits — so a marshal
// change that would break deployed clients fails here, not in the
// field.
func TestWireRequestBackwardCompat(t *testing.T) {
	// Old-format frames decode with TraceID 0 (the "allocate for me"
	// value), indistinguishable from a new client that didn't opt in.
	legacy := []byte(`{"id":2,"op":"query","arg":"reach(a, X)"}`)
	var req Request
	if err := json.Unmarshal(legacy, &req); err != nil {
		t.Fatal(err)
	}
	if req.TraceID != 0 {
		t.Fatalf("legacy request decoded trace id %d, want 0", req.TraceID)
	}
	// A request built without a trace id encodes byte-identically to
	// the legacy frame: trace_id is omitempty, so old servers (and
	// logs, and replay tooling) see no new key.
	out, err := json.Marshal(&Request{ID: 2, Op: "query", Arg: "reach(a, X)"})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(legacy) {
		t.Fatalf("request encoding drifted:\n got %s\nwant %s", out, legacy)
	}
	// Same for responses a trace-unaware server would send.
	legacyResp := []byte(`{"id":2,"ok":true,"tuples":["reach(a, b)"]}`)
	var resp Response
	if err := json.Unmarshal(legacyResp, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != 0 {
		t.Fatalf("legacy response decoded trace id %d, want 0", resp.TraceID)
	}
	out, err = json.Marshal(&Response{ID: 2, OK: true, Tuples: []string{"reach(a, b)"}})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(legacyResp) {
		t.Fatalf("response encoding drifted:\n got %s\nwant %s", out, legacyResp)
	}
}

// End to end: a raw legacy frame (no trace_id) is served identically
// to a trace-bearing one — same tuples, same success — and the legacy
// answer's only new content is the server-allocated trace_id an old
// client ignores.
func TestWireLegacyFrameServedIdentically(t *testing.T) {
	srv, s := startServer(t, reachSrc)
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(0, link("b", "c")); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewScanner(conn)

	send := func(frame string) Response {
		t.Helper()
		if _, err := conn.Write([]byte(frame + "\n")); err != nil {
			t.Fatal(err)
		}
		if !rd.Scan() {
			t.Fatalf("no response to %s: %v", frame, rd.Err())
		}
		var resp Response
		if err := json.Unmarshal(rd.Bytes(), &resp); err != nil {
			t.Fatalf("bad response %q: %v", rd.Bytes(), err)
		}
		return resp
	}

	legacy := send(`{"id":1,"op":"query","arg":"reach(a, X)"}`)
	if !legacy.OK || len(legacy.Tuples) != 2 {
		t.Fatalf("legacy query = %+v", legacy)
	}
	if legacy.TraceID == 0 {
		t.Fatal("server should allocate a trace id for legacy frames")
	}

	traced := send(`{"id":2,"op":"query","arg":"reach(a, X)","trace_id":77}`)
	if !traced.OK || traced.TraceID != 77 {
		t.Fatalf("traced query = %+v, want echo of trace id 77", traced)
	}
	if len(traced.Tuples) != len(legacy.Tuples) {
		t.Fatalf("trace id changed the answer: %v vs %v", traced.Tuples, legacy.Tuples)
	}
	for i := range traced.Tuples {
		if traced.Tuples[i] != legacy.Tuples[i] {
			t.Fatalf("trace id changed the answer: %v vs %v", traced.Tuples, legacy.Tuples)
		}
	}

	// Frames another encoder writes — keys in another order, whitespace,
	// escapes in the goal — leave the form the frame reader takes, go to
	// encoding/json and are answered the same.
	for i, frame := range []string{
		`{"arg":"reach(a, X)","id":3,"op":"query"}`,
		`{ "id": 4, "op": "query", "arg": "reach(a, X)" }`,
		`{"id":5,"op":"query","arg":"reach(\u0061, X)"}`,
		`{"id":6,"op":"query","arg":"reach(a,\tX)"}`,
		`{"Op":"query","ID":7,"Arg":"reach(a, X)","trace_id":null}`,
	} {
		got := send(frame)
		if want := int64(i + 3); !got.OK || got.ID != want || !reflect.DeepEqual(got.Tuples, legacy.Tuples) {
			t.Fatalf("%s answered %+v, want id %d and tuples %v", frame, got, want, legacy.Tuples)
		}
	}

	// The client-chosen id keys the span ring.
	if spans := s.Spans().ByTrace(77); len(spans) == 0 {
		t.Fatal("no spans recorded under the client-chosen trace id")
	}
}

// codeToErr is wireCodes as a map, for the tests that look a code up.
var codeToErr = func() map[string]error {
	m := make(map[string]error, len(wireCodes))
	for _, w := range wireCodes {
		m[w.code] = w.err
	}
	return m
}()

// CodeError must never leak the raw wire code into the human-readable
// message when the server sent no message of its own: a code-only
// response maps straight to the sentinel (regression: snlogrepl
// -connect printed "not_ground: tuple not ground").
func TestCodeErrorCodeOnlyResponses(t *testing.T) {
	for code, sentinel := range codeToErr {
		err := CodeError(code, "")
		if !errors.Is(err, sentinel) {
			t.Fatalf("CodeError(%q, \"\") does not unwrap to its sentinel", code)
		}
		if got, want := err.Error(), sentinel.Error(); got != want {
			t.Fatalf("CodeError(%q, \"\") message %q, want the sentinel's %q", code, got, want)
		}
	}
	// With a server message the sentinel still rides underneath.
	err := CodeError(CodeNotGround, "serve: fact link(X, b): tuple not ground")
	if !errors.Is(err, core.ErrNotGround) {
		t.Fatal("message-bearing CodeError lost its sentinel")
	}
	if err.Error() != "serve: fact link(X, b): tuple not ground" {
		t.Fatalf("message-bearing CodeError rewrote the message: %q", err.Error())
	}
	// Unknown code, no message: the code is all there is to show.
	if got := CodeError("weird_new_code", "").Error(); got != "weird_new_code" {
		t.Fatalf("unknown code-only error = %q", got)
	}
}

// The traced client API round-trips ids and surfaces spans.
func TestClientQueryTraced(t *testing.T) {
	srv, s := startServer(t, reachSrc)
	c := dialClient(t, srv)
	ctx := context.Background()
	if err := c.Inject(ctx, 0, "link(a, b)"); err != nil {
		t.Fatal(err)
	}

	// Server-allocated id.
	_, _, id, err := c.QueryTraced(ctx, "reach(a, X)", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("server did not allocate a trace id")
	}
	if spans := s.Spans().ByTrace(id); len(spans) == 0 {
		t.Fatalf("no spans under allocated id %d", id)
	}

	// Client-chosen id, cache-hit path: probe span notes "hit".
	_, _, id2, err := c.QueryTraced(ctx, "reach(a, X)", 0, 4242)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != 4242 {
		t.Fatalf("echoed trace id = %d, want 4242", id2)
	}
	spans := s.Spans().ByTrace(4242)
	var probeNote string
	for _, sp := range spans {
		if sp.Stage == "cache_probe" {
			probeNote = sp.Note
		}
	}
	if probeNote != "hit" {
		t.Fatalf("cache probe span note = %q (spans %+v), want hit", probeNote, spans)
	}
}

// A request that is not well-formed is answered with code bad_request
// under its own id when the id was readable — a reply under id 0
// matches no pending call. A line encoding/json can read up to a value
// of the wrong type is read past it, so its id is readable wherever it
// stands; in a line cut off, only an id the frame reader stored before
// it stopped is. A line with no readable id keeps id 0.
func TestWireBadRequestAnsweredUnderItsID(t *testing.T) {
	srv, _ := startServer(t, reachSrc)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewScanner(conn)
	for _, tc := range []struct {
		frame string
		id    int64
	}{
		{`{"id":7,"op":"query","arg":5}`, 7},
		{`{"op":"query","id":9,"stale":"yes"}`, 9},
		{`{"id":11,"op":"query","arg":"reach(a, X)"`, 11},
		{`{"op":5,"id":12}`, 12},
		{`{"op":"query","id":12`, 0},
		{`{"id":"x","op":5}`, 0},
		{`not json`, 0},
	} {
		if _, err := conn.Write([]byte(tc.frame + "\n")); err != nil {
			t.Fatal(err)
		}
		if !rd.Scan() {
			t.Fatalf("no response to %s: %v", tc.frame, rd.Err())
		}
		var resp Response
		if err := json.Unmarshal(rd.Bytes(), &resp); err != nil {
			t.Fatalf("bad response %q: %v", rd.Bytes(), err)
		}
		if resp.ID != tc.id || resp.OK || resp.Code != CodeBadRequest {
			t.Errorf("%s answered %s, want id %d and code %s", tc.frame, rd.Bytes(), tc.id, CodeBadRequest)
		}
	}
}

// member is one object member as the codec sees it: its key, a pointer
// to its field, and whether an empty value is left out.
type member struct {
	name string
	p    any
	omit bool
}

// zipMembers zips a struct's key table with its field pointers: its
// member list, as TestWireMembersFollowTags compares it with the json
// tags.
func zipMembers(keys []key, ps []any) []member {
	ms := make([]member, len(keys))
	for i, k := range keys {
		ms[i] = member{k.name, ps[i], k.omit}
	}
	return ms
}

func (r *Request) members() []member {
	ps := r.fields()
	return zipMembers(requestKeys[:], ps[:])
}

func (r *Response) members() []member {
	ps := r.fields()
	return zipMembers(responseKeys[:], ps[:])
}

func (e *Event) members() []member {
	ps := e.fields()
	return zipMembers(eventKeys[:], ps[:])
}

// The codec's member tables are the structs' json tags, field by field:
// a field added, renamed or retagged without its member would silently
// drop off the wire, where encoding/json carried it.
func TestWireMembersFollowTags(t *testing.T) {
	var req Request
	var resp Response
	var ev Event
	rm, sm, em := req.members(), resp.members(), ev.members()
	if sm[tuplesMember].p != any(&resp.Tuples) {
		t.Fatalf("tuplesMember %d is %q", tuplesMember, sm[tuplesMember].name)
	}
	for _, c := range []struct {
		v  any
		ms []member
	}{{&req, rm[:]}, {&resp, sm[:]}, {&ev, em[:]}} {
		rv := reflect.ValueOf(c.v).Elem()
		if rv.NumField() != len(c.ms) {
			t.Fatalf("%s has %d fields, %d members", rv.Type(), rv.NumField(), len(c.ms))
		}
		for i, m := range c.ms {
			f := rv.Type().Field(i)
			name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
			if m.name != name || m.omit != (opts == "omitempty") || reflect.ValueOf(m.p).Pointer() != rv.Field(i).Addr().Pointer() {
				t.Errorf("%s member %d is %q (omit %v); field %s is tagged %q", rv.Type(), i, m.name, m.omit, f.Name, f.Tag.Get("json"))
			}
		}
	}
}
