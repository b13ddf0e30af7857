package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	snlog "repro"
	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
)

const reachSrc = `
.base link/2.
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
.query reach/2.
`

const negSrc = `
.base node/1.
.base down/1.
ok(X) :- node(X), NOT down(X).
.query ok/1.
`

func openSession(t *testing.T, src string, opts Options) *Session {
	t.Helper()
	if len(opts.Deploy) == 0 {
		opts.Deploy = []snlog.Option{snlog.WithSeed(7)}
	}
	s, err := Open(context.Background(), src, snlog.Grid(3), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func link(a, b string) eval.Tuple {
	return eval.NewTuple("link", ast.Symbol(a), ast.Symbol(b))
}

func answers(t *testing.T, s *Session, goal string) []eval.Tuple {
	t.Helper()
	out, err := s.Query(context.Background(), goal)
	if err != nil {
		t.Fatalf("Query(%q): %v", goal, err)
	}
	return out
}

// A repeated identical query must be served from the cache: the first
// is a miss (one probe of the derived set), the repeat — under a
// renamed variable — a hit.
func TestQueryCacheHitZeroEvalWork(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	for _, l := range []eval.Tuple{link("a", "b"), link("b", "c"), link("x", "y")} {
		if err := s.Inject(0, l); err != nil {
			t.Fatal(err)
		}
	}
	got := answers(t, s, "reach(a, X)")
	if len(got) != 2 {
		t.Fatalf("reach(a, X) = %v, want 2 answers", got)
	}
	snap1 := s.Snapshot()
	if snap1.Get("serve.cache.misses") != 1 || snap1.Get("serve.cache.hits") != 0 {
		t.Fatalf("after first query: hits=%d misses=%d", snap1.Get("serve.cache.hits"), snap1.Get("serve.cache.misses"))
	}

	// Variable renaming must not defeat the cache.
	again := answers(t, s, "reach(a, Z)")
	if len(again) != 2 {
		t.Fatalf("repeat = %v", again)
	}
	snap2 := s.Snapshot()
	if snap2.Get("serve.cache.hits") != 1 {
		t.Errorf("repeat query not served from cache: hits=%d", snap2.Get("serve.cache.hits"))
	}
	if snap2.Get("serve.cache.misses") != 1 || snap2.Get("serve.query.spans.eval") != 1 {
		t.Errorf("repeat query probed again: misses=%d eval spans=%d",
			snap2.Get("serve.cache.misses"), snap2.Get("serve.query.spans.eval"))
	}
	if snap2.Get("serve.queries") != 2 {
		t.Errorf("serve.queries = %d, want 2", snap2.Get("serve.queries"))
	}
	if snap2.Get("serve.query_latency.count") != 2 {
		t.Errorf("latency histogram count = %d, want 2", snap2.Get("serve.query_latency.count"))
	}
}

// With no span ring (Options.Spans < 0) a query records no span but
// still counts every stage it passes and its latency.
func TestSpansOffStillCountStages(t *testing.T) {
	s := openSession(t, reachSrc, Options{Spans: -1})
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	answers(t, s, "reach(a, X)") // a miss
	answers(t, s, "reach(a, Y)") // a hit
	if s.Spans() != nil {
		t.Fatal("Spans() is not nil with Options.Spans < 0")
	}
	snap := s.Snapshot()
	for stage, want := range map[string]int64{"parse": 2, "cache_probe": 2, "eval": 1, "explain": 0, "respond": 2} {
		if got := snap.Get("serve.query.spans." + stage); got != want {
			t.Errorf("serve.query.spans.%s = %d, want %d", stage, got, want)
		}
	}
	if got := snap.Get("serve.query_latency.count"); got != 2 {
		t.Errorf("latency histogram count = %d, want 2", got)
	}
}

// twoFamilySrc holds two independent rule families, so a write can
// change one derived predicate and leave the other alone.
const twoFamilySrc = `
.base link/2.
.base edge/2.
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
conn(X, Y) :- edge(X, Y).
conn(X, Z) :- conn(X, Y), edge(Y, Z).
.query reach/2.
.query conn/2.
`

// A write that changes reach/2 turns the next reach goal into a miss —
// whichever reach tuple it touched: the guard is the predicate's change
// counter — and a write that changes only conn/2 does not.
func TestDeletionInvalidation(t *testing.T) {
	s := openSession(t, twoFamilySrc, Options{})
	edge := func(a, b string) eval.Tuple { return eval.NewTuple("edge", ast.Symbol(a), ast.Symbol(b)) }
	for _, f := range []eval.Tuple{link("a", "b"), link("b", "c"), edge("p", "q"), edge("q", "r")} {
		if err := s.Inject(0, f); err != nil {
			t.Fatal(err)
		}
	}
	if got := answers(t, s, "reach(a, X)"); len(got) != 2 {
		t.Fatalf("reach(a, X) = %v", got)
	}

	// edge(q, r) feeds conn/2 only: reach/2's counter stands still and
	// the entry is a hit.
	if err := s.DeleteAt(100, 0, edge("q", "r")); err != nil {
		t.Fatal(err)
	}
	if got := answers(t, s, "reach(a, X)"); len(got) != 2 {
		t.Fatalf("after a conn-only write: %v", got)
	}
	if got := answers(t, s, "conn(p, X)"); len(got) != 1 {
		t.Fatalf("conn(p, X) after deleting edge(q, r) = %v, want [conn(p,q)]", got)
	}
	snap := s.Snapshot()
	if snap.Get("serve.cache.hits") != 1 || snap.Get("serve.cache.misses") != 2 {
		t.Errorf("a conn-only write cost reach its entry: hits=%d misses=%d evictions=%d",
			snap.Get("serve.cache.hits"), snap.Get("serve.cache.misses"), snap.Get("serve.cache.evictions"))
	}

	// link(b, c) supports reach(a, c): reach/2 changes, the publish
	// drops the entry and the re-query probes again.
	if err := s.DeleteAt(200, 0, link("b", "c")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().Get("serve.cache.evictions") == 0 {
		t.Error("the publish that changed reach/2 did not evict its entry")
	}
	got := answers(t, s, "reach(a, X)")
	if len(got) != 1 || got[0].Args[1].Str != "b" {
		t.Fatalf("after deleting link(b, c): %v, want [reach(a,b)]", got)
	}
	snap = s.Snapshot()
	if snap.Get("serve.cache.misses") != 3 {
		t.Errorf("a write that changed reach/2 did not force a probe: misses=%d", snap.Get("serve.cache.misses"))
	}
	if snap.Get("serve.cache.evictions") == 0 {
		t.Error("the stale entry was not counted as an eviction")
	}
	// conn/2 did not move this time.
	if answers(t, s, "conn(p, X)"); s.Snapshot().Get("serve.cache.hits") != 2 {
		t.Errorf("a reach-only write cost conn its entry: hits=%d", s.Snapshot().Get("serve.cache.hits"))
	}
}

// An insertion that derives new tuples of the goal's predicate must
// turn the cached entry stale: new facts create new answers.
func TestInsertionEvicts(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	if got := answers(t, s, "reach(a, X)"); len(got) != 1 {
		t.Fatalf("reach(a, X) = %v", got)
	}
	if err := s.Inject(0, link("b", "c")); err != nil {
		t.Fatal(err)
	}
	got := answers(t, s, "reach(a, X)")
	if len(got) != 2 {
		t.Fatalf("after insert: %v, want 2 answers", got)
	}
	if s.Snapshot().Get("serve.cache.hits") != 0 {
		t.Error("insert into the positive cone did not evict")
	}
}

// Deleting a fact under a negation can CREATE answers; the new ok(a)
// moves ok/1's counter like any other change, so the cached answer
// goes although no proof of ok(b) ever mentioned down(a).
func TestNegationFlipEvicts(t *testing.T) {
	s := openSession(t, negSrc, Options{})
	node := func(x string) eval.Tuple { return eval.NewTuple("node", ast.Symbol(x)) }
	down := func(x string) eval.Tuple { return eval.NewTuple("down", ast.Symbol(x)) }
	for _, f := range []eval.Tuple{node("a"), node("b"), down("a")} {
		if err := s.Inject(0, f); err != nil {
			t.Fatal(err)
		}
	}
	if got := answers(t, s, "ok(X)"); len(got) != 1 || got[0].Args[0].Str != "b" {
		t.Fatalf("ok(X) = %v, want [ok(b)]", got)
	}
	// The flip: removing down(a) makes ok(a) true.
	if err := s.DeleteAt(100, 0, down("a")); err != nil {
		t.Fatal(err)
	}
	got := answers(t, s, "ok(X)")
	if len(got) != 2 {
		t.Fatalf("after negation flip: %v, want [ok(a) ok(b)]", got)
	}
	if s.Snapshot().Get("serve.cache.hits") != 0 {
		t.Error("negation-tainted deletion served a stale cached answer")
	}
}

// Ground and repeated-variable binding patterns get their own cache
// entries and their own (correct) answers.
func TestQueryBindingPatterns(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	for _, l := range []eval.Tuple{link("a", "b"), link("b", "a")} {
		if err := s.Inject(0, l); err != nil {
			t.Fatal(err)
		}
	}
	if got := answers(t, s, "reach(a, a)"); len(got) != 1 {
		t.Errorf("ground query reach(a, a) = %v", got)
	}
	if got := answers(t, s, "reach(X, X)"); len(got) != 2 {
		t.Errorf("reach(X, X) = %v, want [reach(a,a) reach(b,b)]", got)
	}
	if got := answers(t, s, "reach(X, Y)"); len(got) != 4 {
		t.Errorf("reach(X, Y) = %v, want all 4", got)
	}
	if s.cacheLen() != 3 {
		t.Errorf("cache entries = %d, want 3 distinct binding patterns", s.cacheLen())
	}
}

// Validation failures surface the shared typed sentinels.
func TestQueryTypedErrors(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	ctx := context.Background()
	cases := []struct {
		goal string
		want error
	}{
		{"link(a, X)", snlog.ErrBasePredicate},
		{"reach(X)", snlog.ErrArity},
		{"ghost(X)", snlog.ErrUnknownPredicate},
		{"reach(X, Y) :- link(X, Y)", snlog.ErrBadGoal},
	}
	for _, c := range cases {
		if _, err := s.Query(ctx, c.goal); !errors.Is(err, c.want) {
			t.Errorf("Query(%q) = %v, want errors.Is(%v)", c.goal, err, c.want)
		}
	}
	if err := s.Inject(0, eval.NewTuple("reach", ast.Symbol("a"), ast.Symbol("b"))); !errors.Is(err, snlog.ErrDerivedPredicate) {
		t.Errorf("Inject derived = %v", err)
	}
	if err := s.Inject(-1, link("a", "b")); !errors.Is(err, snlog.ErrBadNode) {
		t.Errorf("Inject bad node = %v", err)
	}
	if _, err := s.Subscribe("link/2"); !errors.Is(err, snlog.ErrBasePredicate) {
		t.Errorf("Subscribe base = %v", err)
	}
	if _, err := s.Subscribe("ghost/1"); !errors.Is(err, snlog.ErrUnknownPredicate) {
		t.Errorf("Subscribe unknown = %v", err)
	}
	if _, err := s.Subscribe("reach/3"); !errors.Is(err, snlog.ErrArity) {
		t.Errorf("Subscribe wrong arity = %v", err)
	}
	if _, err := s.Explain(ctx, "reach(a, X)"); !errors.Is(err, core.ErrNotGround) {
		t.Errorf("Explain non-ground = %v", err)
	}
}

func TestExplainGroundGoal(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	for _, l := range []eval.Tuple{link("a", "b"), link("b", "c")} {
		if err := s.Inject(0, l); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := s.Explain(context.Background(), "reach(a, c)")
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if tree == nil || len(tree.Derivs) == 0 {
		t.Fatalf("Explain returned empty tree: %+v", tree)
	}
}

// Explain walks the home nodes' set-of-derivations, which every flush
// rewrites; only runMu keeps the walk apart from a flush's run. Four
// readers Explain and Query while one writer
// deletes and re-inserts the chain's last link through size-triggered
// flushes (run under -race by make race).
func TestConcurrentExplainDuringFlushes(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchSize: 2, BatchDelay: -1})
	node := func(i int) string { return fmt.Sprintf("n%d", i) }
	for i := 0; i < 8; i++ {
		if err := s.Inject(i%9, link(node(i), node(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// n7 -> n8 comes and goes; the rest of the chain stays.
				if got, err := s.Query(ctx, "reach(n0, X)"); err != nil || len(got) < 7 || len(got) > 8 {
					t.Errorf("reach(n0, X) = %d answers, %v; want 7 or 8", len(got), err)
					return
				}
				if tree, err := s.Explain(ctx, "reach(n0, n7)"); err != nil || len(tree.Derivs) != 1 {
					t.Errorf("reach(n0, n7) should explain through one derivation: %v", err)
					return
				}
				if _, err := s.Explain(ctx, "reach(n0, n8)"); err != nil && !strings.Contains(err.Error(), "no live derivation") {
					t.Errorf("reach(n0, n8): %v", err)
					return
				}
			}
		}()
	}
	last := link(node(7), node(8))
	for c := 0; c < 40; c++ {
		at := s.lastEnd.Load()
		if err := s.DeleteAt(at+10, 7, last); err != nil {
			t.Fatal(err)
		}
		if err := s.InjectAt(at+20, 7, last); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := s.Explain(ctx, "reach(n0, n8)"); err != nil {
		t.Fatalf("the writer ends with n7 -> n8 inserted, yet: %v", err)
	}
	if snap := s.Snapshot(); snap.Get("serve.batch.flush.size") == 0 || snap.Get("core.prov.live") == 0 {
		t.Fatalf("size flushes %d, core.prov.live %d; want both nonzero",
			snap.Get("serve.batch.flush.size"), snap.Get("core.prov.live"))
	}
}

// The session logs the view transitions of every derived predicate,
// whether or not a .query names it or a subscription watches it, and
// drains the log when it publishes: after every sync the engine's
// ResultLog is empty. Closing the last subscription changes neither,
// and a later subscription sees nothing from before it.
func TestLastUnsubscribeDropsWatch(t *testing.T) {
	s := openSession(t, strings.Replace(reachSrc, ".query reach/2.\n", "", 1), Options{BatchDelay: -1})
	ctx := context.Background()
	sync := func(l eval.Tuple, logged int64) {
		t.Helper()
		if err := s.Inject(0, l); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		if n := len(s.c.Engine.ResultLog); n != 0 {
			t.Fatalf("after syncing %v: %d transitions left in ResultLog; want it drained", l, n)
		}
		if n := s.Snapshot().Get("core.results_logged"); n != logged {
			t.Fatalf("after syncing %v: %d transitions logged, want %d", l, n, logged)
		}
	}
	sync(link("x", "y"), 1) // no .query and no subscriber: logged all the same
	a, err := s.Subscribe("reach/2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Subscribe("reach/2")
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	a.Close() // idempotent
	sync(link("a", "b"), 2)
	if u := <-b.C(); !u.Insert || u.Tuple.Key() != eval.NewTuple("reach", ast.Symbol("a"), ast.Symbol("b")).Key() {
		t.Fatalf("update %+v; want the insert of reach(a, b)", u)
	}
	b.Close()
	sync(link("b", "c"), 4) // reach(b, c) and reach(a, c)
	c, err := s.Subscribe("reach/2")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case u := <-c.C():
		t.Fatalf("update %+v from before the subscription", u)
	default:
	}
}

func TestSubscribeDelivery(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	sub, err := s.Subscribe("reach/2")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Baseline is the state at subscribe time: reach(a,b) is already
	// derived, so nothing is pending.
	select {
	case u := <-sub.C():
		t.Fatalf("unexpected update before change: %+v", u)
	default:
	}
	if err := s.Inject(0, link("b", "c")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for len(got) < 2 {
		select {
		case u := <-sub.C():
			if !u.Insert {
				t.Fatalf("unexpected deletion update: %+v", u)
			}
			got[u.Tuple.Key()] = true
		case <-time.After(time.Second):
			t.Fatalf("timed out waiting for updates, got %v", got)
		}
	}
	// And a deletion shows up as a retraction.
	if err := s.DeleteAt(100, 0, link("b", "c")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	deletions := 0
	for done := false; !done; {
		select {
		case u := <-sub.C():
			if !u.Insert {
				deletions++
			}
		case <-time.After(time.Second):
			done = true
		}
	}
	if deletions == 0 {
		t.Error("no retraction delivered after deletion")
	}
}

func TestCacheDisabledStillCorrect(t *testing.T) {
	s := openSession(t, reachSrc, Options{CacheSize: -1})
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := answers(t, s, "reach(a, X)"); len(got) != 1 {
			t.Fatalf("query %d: %v", i, got)
		}
	}
	snap := s.Snapshot()
	if snap.Get("serve.cache.hits") != 0 || snap.Get("serve.cache.misses") != 3 {
		t.Errorf("disabled cache: hits=%d misses=%d", snap.Get("serve.cache.hits"), snap.Get("serve.cache.misses"))
	}
}

// A full cache empties before it stores: at CacheSize 2 the third goal
// drops both entries, counted as evictions, and is then stored alone;
// every answer stays right.
func TestCacheEmptiesWhenFull(t *testing.T) {
	s := openSession(t, reachSrc, Options{CacheSize: 2})
	for _, l := range []eval.Tuple{link("a", "b"), link("b", "c"), link("c", "d")} {
		if err := s.Inject(0, l); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int{"reach(a, X)": 3, "reach(b, X)": 2, "reach(c, X)": 1}
	ask := func(goal string) {
		t.Helper()
		if got := answers(t, s, goal); len(got) != want[goal] {
			t.Fatalf("%s = %v, want %d answers", goal, got, want[goal])
		}
	}
	ask("reach(a, X)")
	ask("reach(b, X)")
	ask("reach(a, X)") // hit: the cache holds 2, its capacity
	if s.cacheLen() != 2 {
		t.Fatalf("cache len = %d, want 2", s.cacheLen())
	}
	ask("reach(c, X)") // empties the cache, then is stored
	if s.cacheLen() != 1 {
		t.Fatalf("cache len after the third goal = %d, want 1", s.cacheLen())
	}
	ask("reach(a, X)") // miss: emptied with the rest
	ask("reach(a, X)") // hit
	snap := s.Snapshot()
	if h, m, e := snap.Get("serve.cache.hits"), snap.Get("serve.cache.misses"), snap.Get("serve.cache.evictions"); h != 2 || m != 4 || e != 2 {
		t.Errorf("hits=%d misses=%d evictions=%d, want 2, 4 and 2", h, m, e)
	}
}

func TestClosedSession(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	sub, err := s.Subscribe("reach/2")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-sub.C(); open {
		t.Error("subscription channel still open after Close")
	}
	if _, err := s.Query(context.Background(), "reach(a, X)"); !errors.Is(err, ErrClosed) {
		t.Errorf("Query after Close = %v", err)
	}
	if err := s.Inject(0, link("a", "b")); !errors.Is(err, ErrClosed) {
		t.Errorf("Inject after Close = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

func TestQueryContextCancelled(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Query(ctx, "reach(a, X)"); !errors.Is(err, context.Canceled) {
		t.Errorf("Query with cancelled ctx = %v", err)
	}
}

// Many goroutine "clients" interleaving queries, injections, deletions
// and subscriptions against one session. Run under -race; correctness
// of the final answer is checked after the storm settles. At CacheSize 2
// the cache is always full, so emptying it interleaves with misses that
// build indexes of the view, hits and publishes.
func TestConcurrentClients(t *testing.T) {
	for _, size := range []int{0, 2} {
		t.Run(fmt.Sprintf("cache=%d", size), func(t *testing.T) {
			concurrentClients(t, Options{CacheSize: size})
		})
	}
}

func concurrentClients(t *testing.T, opts Options) {
	s := openSession(t, reachSrc, opts)
	const clients = 8
	var wg, ready sync.WaitGroup
	start := make(chan struct{})
	ctx := context.Background()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(id int) {
			defer wg.Done()
			a := fmt.Sprintf("c%d", id)
			b := fmt.Sprintf("c%d", (id+1)%clients)
			sub, err := s.Subscribe("reach/2")
			ready.Done()
			if err != nil {
				t.Errorf("client %d subscribe: %v", id, err)
				return
			}
			defer sub.Close()
			<-start
			for j := 0; j < 10; j++ {
				// Four binding patterns, so that readers that missed build
				// different indexes of the derived set at the same time.
				goal := [...]string{"reach(A, X)", "reach(X, A)", "reach(A, A)", "reach(X, Y)"}[(id+j)%4]
				goal = strings.ReplaceAll(goal, "A", a)
				// Stale, so it waits for no flush: the clients' first misses
				// build the view's indexes together.
				if _, _, err := s.QueryStale(ctx, goal, -1); err != nil {
					t.Errorf("client %d stale query: %v", id, err)
				}
				if err := s.Inject(id%9, link(a, b)); err != nil {
					t.Errorf("client %d inject: %v", id, err)
				}
				if _, err := s.Query(ctx, goal); err != nil {
					t.Errorf("client %d query: %v", id, err)
				}
				if j%3 == 2 {
					if err := s.DeleteAt(int64(1000+100*j), id%9, link(a, b)); err != nil {
						t.Errorf("client %d delete: %v", id, err)
					}
				}
				// Drain without blocking so the buffer doesn't fill.
				for drained := false; !drained; {
					select {
					case <-sub.C():
					default:
						drained = true
					}
				}
			}
		}(i)
	}
	ready.Wait()
	close(start)
	wg.Wait()
	// Every client ends its loop with the edge live (last delete at
	// j==8, re-injected at j==9): full ring reachability.
	got := answers(t, s, "reach(c0, X)")
	if len(got) != clients {
		t.Errorf("final reach(c0, X) = %d answers, want %d (full ring)", len(got), clients)
	}
	snap := s.Snapshot()
	if q := snap.Get("serve.queries"); q != int64(clients*20+1) {
		t.Errorf("serve.queries = %d, want %d", q, clients*20+1)
	}
	if peak := s.readerPeak.Load(); peak < 1 {
		t.Errorf("serve.read_concurrency.peak = %d, want >= 1", peak)
	}
	t.Logf("hits %d, misses %d, evictions %d, read-concurrency peak %d", snap.Get("serve.cache.hits"),
		snap.Get("serve.cache.misses"), snap.Get("serve.cache.evictions"), s.readerPeak.Load())
}

// cacheLen is the live entry count.
func (s *Session) cacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache)
}

// Writes coalesce: BatchSize writes trigger exactly one apply+sync
// (deadline disabled so the count is deterministic), and the batch
// counters record one size-triggered flush of that many writes.
func TestWriteBatchingCoalescesSyncs(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchSize: 8, BatchDelay: -1})
	for i := 0; i < 8; i++ {
		if err := s.Inject(0, link(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if lag := s.Lag(); lag != 0 {
		t.Fatalf("lag after full batch = %d, want 0 (size-triggered flush)", lag)
	}
	snap := s.Snapshot()
	if got := snap.Get("serve.batch.flushes"); got != 1 {
		t.Errorf("serve.batch.flushes = %d, want 1", got)
	}
	if got := snap.Get("serve.batch.flush.size"); got != 1 {
		t.Errorf("serve.batch.flush.size = %d, want 1", got)
	}
	if got := snap.Get("serve.batch.writes"); got != 8 {
		t.Errorf("serve.batch.writes = %d, want 8", got)
	}
	if got := snap.Get("serve.batch.size.count"); got != 1 {
		t.Errorf("batch-size histogram count = %d, want 1", got)
	}
	// The batch is applied: a fresh query sees the whole chain.
	if got := answers(t, s, "reach(n0, X)"); len(got) != 8 {
		t.Errorf("reach(n0, X) = %d answers, want 8", len(got))
	}
}

// A batch that repeats writes answers as if each were written once: six
// repeats of one (node, fact) insert plus two distinct writes fill a
// batch, and insert;insert;delete of one key in a batch leaves the key
// deleted, every generation of it.
func TestBatchOfRepeatsAnswers(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchSize: 8, BatchDelay: -1})
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if err := s.Inject(0, link("a", "b")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Inject(0, link("b", "c")); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(1, link("a", "b")); err != nil { // a different source node
		t.Fatal(err)
	}
	if lag := s.Lag(); lag != 0 {
		t.Fatalf("lag after full batch = %d, want 0", lag)
	}
	if got := answers(t, s, "reach(a, X)"); len(got) != 2 {
		t.Errorf("reach(a, X) = %d answers, want 2", len(got))
	}

	now, err := s.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(0, link("c", "d")); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(0, link("c", "d")); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteAt(now+1, 0, link("c", "d")); err != nil {
		t.Fatal(err)
	}
	if got := answers(t, s, "reach(c, X)"); len(got) != 0 {
		t.Errorf("reach(c, X) = %v after insert;insert;delete, want none", got)
	}
}

// A fresh query (maxLag 0) forces the in-flight batch through; a
// stale query answers from the last quiesced snapshot and reports its
// lag honestly.
func TestQueryStaleServesSnapshot(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchSize: 64, BatchDelay: -1})
	ctx := context.Background()
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	if got := answers(t, s, "reach(a, X)"); len(got) != 1 { // fresh: flushes
		t.Fatalf("reach(a, X) = %v", got)
	}
	if err := s.Inject(0, link("b", "c")); err != nil { // buffered
		t.Fatal(err)
	}
	got, fr, err := s.QueryStale(ctx, "reach(a, X)", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("stale answer = %v, want the pre-write snapshot (1 tuple)", got)
	}
	if fr.Lag != 1 {
		t.Errorf("stale freshness lag = %d, want 1", fr.Lag)
	}
	if s.Snapshot().Get("serve.stale.served") != 1 {
		t.Error("serve.stale.served did not count the stale answer")
	}
	// Bounded staleness: lag 1 > maxLag 0 forces the flush.
	got, fr, err = s.QueryStale(ctx, "reach(a, X)", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || fr.Lag != 0 {
		t.Errorf("fresh query = %d answers lag %d, want 2 answers lag 0", len(got), fr.Lag)
	}
	if s.Snapshot().Get("serve.batch.flush.fresh") == 0 {
		t.Error("freshness-bounded query recorded no fresh-triggered flush")
	}
}

// The deadline timer applies a lone write without any query or sync
// forcing it.
func TestBatchDeadlineFlush(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchSize: 1024, BatchDelay: 2 * time.Millisecond})
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Lag() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("write still buffered after 2s: lag=%d", s.Lag())
		}
		time.Sleep(time.Millisecond)
	}
	if s.Snapshot().Get("serve.batch.flush.deadline") == 0 {
		t.Error("no deadline-triggered flush recorded")
	}
	// Served from the snapshot without any further flush.
	got, fr, err := s.QueryStale(context.Background(), "reach(a, X)", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || fr.Lag != 0 {
		t.Errorf("after deadline flush: %d answers lag %d, want 1 answer lag 0", len(got), fr.Lag)
	}
}

// A read never waits for a run. runMu is held for the whole of a
// flush; while it is, QueryStale with a lag bound the buffered writes
// fit answers from the last published set and reports the lag, and
// Query, which must reflect every acknowledged write, waits for runMu
// and then answers fresh.
func TestStaleReadsAnswerDuringARun(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchSize: 1024, BatchDelay: -1})
	ctx := context.Background()
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	answers(t, s, "reach(a, X)") // publishes reach(a, b)
	s.runMu.Lock()
	if err := s.Inject(0, link("b", "c")); err != nil {
		s.runMu.Unlock()
		t.Fatal(err)
	}
	got, fr, err := s.QueryStale(ctx, "reach(a, X)", s.Lag())
	if err != nil || len(got) != 1 || fr.Lag != 1 {
		s.runMu.Unlock()
		t.Fatalf("stale read during a run: %v lag %d err %v; want the published reach(a, b), lag 1", got, fr.Lag, err)
	}
	done := make(chan []eval.Tuple, 1)
	go func() {
		got, err := s.Query(ctx, "reach(a, X)")
		if err != nil {
			t.Error(err)
		}
		done <- got
	}()
	select {
	case got := <-done:
		s.runMu.Unlock()
		t.Fatalf("Query answered %v while runMu was held", got)
	case <-time.After(50 * time.Millisecond):
	}
	s.runMu.Unlock()
	if got := <-done; len(got) != 2 {
		t.Fatalf("Query after the run: %v, want reach(a, b) and reach(a, c)", got)
	}
	if lag := s.Lag(); lag != 0 {
		t.Fatalf("lag %d after the fresh query, want 0", lag)
	}
}

// Buffered writes survive Close: every acknowledged write is applied
// before the session shuts down.
func TestCloseFlushesBufferedWrites(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchSize: 1024, BatchDelay: -1})
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	if s.Lag() != 1 {
		t.Fatalf("precondition: write should be buffered, lag=%d", s.Lag())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Lag() != 0 {
		t.Errorf("lag after Close = %d, want 0 (batch applied)", s.Lag())
	}
	// The cluster itself saw the write.
	if got := s.c.Results("reach/2"); len(got) != 1 {
		t.Errorf("cluster reach/2 = %v, want the flushed fact derived", got)
	}
}

// A session takes the engine's log of view transitions at every sync,
// subscriber or none, so it keeps none of it: after any number of synced
// write cycles the log is empty, and core.results_logged still counts
// every transition.
func TestSessionKeepsNoResultLog(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchDelay: -1})
	ctx := context.Background()
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Inject(4, link("b", "c")); err != nil {
			t.Fatal(err)
		}
		now, err := s.Sync(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteAt(now+1, 4, link("b", "c")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.Cluster().Engine.ResultLog); n != 0 {
		t.Errorf("ResultLog holds %d transitions after 20 synced write cycles, want 0", n)
	}
	// reach(a, b) once, then reach(b, c) and reach(a, c) in and out per cycle.
	if got := s.Cluster().Registry().Snapshot().Get("core.results_logged"); got != 1+20*4 {
		t.Errorf("core.results_logged = %d, want %d", got, 1+20*4)
	}
}

// A session runs no goroutine of its own: Open with the default batch
// deadline starts none (the deadline is a timer, armed by a batch's
// first write), and Close with a deadline armed stops it and returns at
// once, leaving the goroutine count where it was before Open.
func TestSessionRunsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := Open(context.Background(), reachSrc, snlog.Grid(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		s.Close()
		t.Fatalf("Open started %d goroutines", got-before)
	}
	s.Close()

	s, err = Open(context.Background(), reachSrc, snlog.Grid(3), Options{BatchSize: 1024, BatchDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close with a deadline armed took %v", d)
	}
	if s.Lag() != 0 {
		t.Errorf("Close left %d writes unapplied", s.Lag())
	}
	if s.deadline.Stop() {
		t.Error("the deadline timer was still armed after Close")
	}
	waitGoroutines(t, before)
}

// Writes racing Close under a short deadline: every acknowledged write
// is applied, no deadline fires into a closed session's state, and no
// goroutine is left behind. Run it under -race.
func TestCloseRacesDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		s, err := Open(context.Background(), reachSrc, snlog.Grid(3), Options{BatchSize: 1024, BatchDelay: time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if err := s.Inject(0, link("a", fmt.Sprintf("n%d", j))); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Error(err)
					}
					return
				}
			}
		}()
		time.Sleep(time.Duration(i%4) * 100 * time.Microsecond)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if s.Lag() != 0 {
			t.Fatalf("round %d: Close left %d writes unapplied", i, s.Lag())
		}
	}
	waitGoroutines(t, before)
}
