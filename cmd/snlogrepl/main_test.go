package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	snlog "repro"
	"repro/internal/serve"
)

const sessionSrc = `
cov(L, T) :- veh(enemy, L, T), veh(friendly, L2, T), dist(L, L2) <= 5.
uncov(L, T) :- NOT cov(L, T), veh(enemy, L, T).
`

func TestReplSession(t *testing.T) {
	m, err := newSession(sessionSrc)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder

	run := func(line string) string {
		out.Reset()
		if done := execute(&out, m, line); done {
			t.Fatalf("unexpected quit on %q", line)
		}
		return out.String()
	}

	got := run("+ veh(enemy, loc(1, 1), 5)")
	if !strings.Contains(got, "+ uncov(loc(1, 1), 5)") {
		t.Errorf("assert output = %q", got)
	}
	got = run("+ veh(friendly, loc(2, 2), 5)")
	if !strings.Contains(got, "- uncov(loc(1, 1), 5)") || !strings.Contains(got, "+ cov(") {
		t.Errorf("cover output = %q", got)
	}
	got = run("? cov/2")
	if !strings.Contains(got, "cov(loc(1, 1), 5)") {
		t.Errorf("query output = %q", got)
	}
	got = run("- veh(friendly, loc(2, 2), 5)")
	if !strings.Contains(got, "+ uncov(loc(1, 1), 5)") {
		t.Errorf("retract output = %q", got)
	}
	got = run("proof uncov(loc(1, 1), 5)")
	if !strings.Contains(got, "veh(enemy, loc(1, 1), 5)") {
		t.Errorf("proof output = %q", got)
	}
	got = run("stats")
	if !strings.Contains(got, "join ops") {
		t.Errorf("stats output = %q", got)
	}
	got = run("?")
	if !strings.Contains(got, "uncov/2") {
		t.Errorf("list-all output = %q", got)
	}
	got = run("nonsense")
	if !strings.Contains(got, "unknown command") {
		t.Errorf("unknown output = %q", got)
	}
	got = run("+ not a fact")
	if !strings.Contains(got, "error") {
		t.Errorf("bad fact output = %q", got)
	}
	out.Reset()
	if done := execute(&out, m, "quit"); !done {
		t.Error("quit should end the session")
	}
}

func TestReplLoop(t *testing.T) {
	m, err := newSession(`d(X) :- s(X).`)
	if err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader("+ s(1)\n? d/1\nquit\n")
	var out strings.Builder
	repl(in, &out, m)
	if !strings.Contains(out.String(), "d(1)") {
		t.Errorf("repl output = %q", out.String())
	}
}

func TestParseFactVariants(t *testing.T) {
	if _, err := parseFact("p(1, a)."); err != nil {
		t.Error(err)
	}
	if _, err := parseFact("p(1, a)"); err != nil {
		t.Error("trailing dot should be optional")
	}
	if _, err := parseFact("p(X)"); err == nil {
		t.Error("non-ground fact should error")
	}
}

func TestReplGoalQuery(t *testing.T) {
	s, err := newSession(`
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	run := func(line string) string {
		out.Reset()
		execute(&out, s, line)
		return out.String()
	}
	run("+ edge(a, b)")
	run("+ edge(b, c)")
	got := run("? path(a, X)")
	if !strings.Contains(got, "path(a, b)") || !strings.Contains(got, "path(a, c)") {
		t.Errorf("goal query output = %q", got)
	}
	got = run("? path(a, c)")
	if !strings.Contains(got, "path(a, c)") {
		t.Errorf("ground goal output = %q", got)
	}
	got = run("? path(X)")
	if !strings.Contains(got, "error") || !strings.Contains(got, "arity") {
		t.Errorf("arity error output = %q", got)
	}
	got = run("? edge(a, X)")
	if !strings.Contains(got, "error") {
		t.Errorf("base goal should error on the shared path, got %q", got)
	}
}

func TestRemoteExecute(t *testing.T) {
	sess, err := serve.Open(context.Background(), `
.base edge/2.
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
.query path/2.
`, snlog.Grid(2), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(sess, ln)
	defer srv.Close()
	c, err := serve.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var out strings.Builder
	run := func(line string) string {
		out.Reset()
		if done := remoteExecute(&out, c, line); done {
			t.Fatalf("unexpected quit on %q", line)
		}
		return out.String()
	}
	run("+ edge(a, b)")
	run("+ edge(b, c)")
	got := run("? path(a, X)")
	if !strings.Contains(got, "path(a, b)") || !strings.Contains(got, "path(a, c)") {
		t.Errorf("remote goal query = %q", got)
	}
	got = run("? path/2")
	if !strings.Contains(got, "path(b, c)") {
		t.Errorf("remote pred/arity query = %q", got)
	}
	got = run("proof path(a, c)")
	if !strings.Contains(got, "edge") {
		t.Errorf("remote proof = %q", got)
	}
	got = run("- edge(b, c)")
	if strings.Contains(got, "error") {
		t.Errorf("remote retract = %q", got)
	}
	got = run("? path(a, X)")
	if strings.Contains(got, "path(a, c)") {
		t.Errorf("deleted edge still reachable: %q", got)
	}
	got = run("stats")
	if !strings.Contains(got, "serve.queries") {
		t.Errorf("remote stats = %q", got)
	}
	got = run("? ghost(X)")
	if !strings.Contains(got, "error") {
		t.Errorf("remote unknown pred = %q", got)
	}
	out.Reset()
	if done := remoteExecute(&out, c, "quit"); !done {
		t.Error("quit should end the session")
	}
}

// Regression: -connect printed raw wire error codes (or duplicated
// sentinel text) for typed validation errors instead of the human
// message. A code-only response must surface the sentinel's own text,
// and a message-bearing one must print verbatim — no "not_ground:"
// prefix, no doubled "tuple not ground: tuple not ground".
func TestRemoteExecuteErrorMessages(t *testing.T) {
	// Stub daemon over a pipe: answers every request with a code-only
	// error frame, the minimal-server shape that leaked raw codes.
	cliConn, srvConn := net.Pipe()
	go func() {
		sc := bufio.NewScanner(srvConn)
		for sc.Scan() {
			var req serve.Request
			if json.Unmarshal(sc.Bytes(), &req) != nil {
				continue
			}
			resp, _ := json.Marshal(serve.Response{ID: req.ID, OK: false, Code: serve.CodeNotGround})
			srvConn.Write(append(resp, '\n'))
		}
	}()
	c := serve.NewClient(cliConn)
	defer c.Close()

	var out strings.Builder
	remoteExecute(&out, c, "? path(a, X)")
	got := out.String()
	if !strings.Contains(got, "tuple not ground") {
		t.Errorf("code-only error lost the human message: %q", got)
	}
	if strings.Contains(got, "not_ground") {
		t.Errorf("raw wire code leaked into the output: %q", got)
	}

	// Real daemon: a message-bearing validation error prints the
	// server's message exactly once.
	sess, err := serve.Open(context.Background(), `
.base edge/2.
path(X, Y) :- edge(X, Y).
.query path/2.
`, snlog.Grid(2), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(sess, ln)
	defer srv.Close()
	rc, err := serve.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	out.Reset()
	remoteExecute(&out, rc, "+ edge(X, b)") // unbound variable
	got = out.String()
	if !strings.Contains(got, "tuple not ground") {
		t.Errorf("real-server error lost the human message: %q", got)
	}
	if strings.Count(got, "tuple not ground") != 1 {
		t.Errorf("sentinel text duplicated: %q", got)
	}
}

func TestRenderWatch(t *testing.T) {
	t0 := time.Unix(1000, 0)
	prev := map[string]int64{
		"serve.queries":      1000,
		"serve.cache.hits":   500,
		"serve.cache.misses": 100,
		"serve.batch.writes": 40,
		"nsim.events":        10000,
	}
	cur := map[string]int64{
		"serve.queries":           1200,
		"serve.cache.hits":        680,
		"serve.cache.misses":      120,
		"serve.batch.writes":      60,
		"serve.batch.flush.size":  7,
		"serve.batch.flush.fresh": 3,
		"serve.query_latency.p50": 40,
		"serve.query_latency.p99": 900,
		"serve.query_latency.max": 1500,
		"nsim.events":             11000,
	}
	got := renderWatch([]poll{{t0, prev}, {t0.Add(2 * time.Second), cur}})
	for _, want := range []string{
		"2s window",
		"qps 100",        // (1200-1000)/2s
		"hit rate 85.0%", // lifetime 680/800
		"(window 90.0%)", // delta 180/200
		"p50 40",
		"p99 900",
		"events/s 500", // (11000-10000)/2s
	} {
		if !strings.Contains(got, want) {
			t.Errorf("frame missing %q:\n%s", want, got)
		}
	}
	// First frame: no previous poll, no rates, no panic.
	first := renderWatch([]poll{{t0, cur}})
	if !strings.Contains(first, "qps 0") || !strings.Contains(first, "1m avg 0") || !strings.Contains(first, "hit rate 85.0%") {
		t.Errorf("first frame = %q", first)
	}
}

// The "1m avg" columns average over every poll snltop kept from the
// last minute — oldest to current — while qps and events/s cover only
// the last poll window.
func TestRenderWatchMinuteAverage(t *testing.T) {
	t0 := time.Unix(1000, 0)
	polls := []poll{
		{t0, map[string]int64{"serve.queries": 0, "nsim.events": 0}},
		{t0.Add(30 * time.Second), map[string]int64{"serve.queries": 1500, "nsim.events": 600}},
		{t0.Add(58 * time.Second), map[string]int64{"serve.queries": 2900, "nsim.events": 1160}},
		{t0.Add(60 * time.Second), map[string]int64{"serve.queries": 3000, "nsim.events": 1200}},
	}
	got := renderWatch(polls)
	for _, want := range []string{
		"qps 50       1m avg 50",  // (3000-2900)/2s; 3000/60s
		"events/s 20   1m avg 20", // (1200-1160)/2s; 1200/60s
	} {
		if !strings.Contains(got, want) {
			t.Errorf("frame missing %q:\n%s", want, got)
		}
	}
	// A burst in the last window moves qps, not the minute average.
	polls[3].snap = map[string]int64{"serve.queries": 5900}
	if got := renderWatch(polls); !strings.Contains(got, "qps 1500     1m avg 98") {
		t.Errorf("burst frame:\n%s", got)
	}
}

func TestWatchLoop(t *testing.T) {
	calls := 0
	fetch := func() (map[string]int64, error) {
		calls++
		if calls == 2 {
			return nil, fmt.Errorf("daemon restarting")
		}
		return map[string]int64{"serve.queries": int64(100 * calls)}, nil
	}
	var out strings.Builder
	watchLoop(&out, fetch, time.Millisecond, 3, false)
	got := out.String()
	if calls != 3 {
		t.Fatalf("fetch called %d times, want 3", calls)
	}
	if strings.Count(got, "snltop —") != 2 {
		t.Errorf("want 2 rendered frames around the error, got:\n%s", got)
	}
	if !strings.Contains(got, "snltop: daemon restarting") {
		t.Errorf("fetch error not surfaced: %q", got)
	}
	if strings.Contains(got, "\x1b[2J") {
		t.Errorf("clear=false must not emit ANSI clears")
	}
}
