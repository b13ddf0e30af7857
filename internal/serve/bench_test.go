package serve

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	snlog "repro"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
)

// BenchmarkColdQuery times a cache miss in-process — goal parse, one
// indexed probe of the derived set, match and sort of the answers —
// with the result cache off, over four link chains of 32 (the shape of
// the repository benchmark's serve_cold workload, without the wire).
// The goals cycle over every chain node with the first argument bound
// (bf), the second (fb), or both (bb):
//
//	go test -run '^$' -bench ColdQuery -benchmem ./internal/serve/
func BenchmarkColdQuery(b *testing.B) {
	s := chainSession(b, -1)
	ctx := context.Background()
	for _, sh := range coldShapes {
		goals := sh.goals()
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				k := n % len(goals)
				ans, err := s.Query(ctx, goals[k])
				if err != nil || len(ans) != sh.want(k/coldChains) {
					b.Fatalf("%s: %d answers, want %d (%v)", goals[k], len(ans), sh.want(k/coldChains), err)
				}
			}
		})
	}
}

// BenchmarkColdQueryParallel is BenchmarkColdQuery with GOMAXPROCS
// goroutines asking at once (b.RunParallel), each cycling a shape's
// goals from its own offset: the misses' lock contention without the
// wire. Spans are off, as in the repository benchmark's untraced runs,
// so the span ring's mutex does not stand in for the session's locks.
//
//	go test -run '^$' -bench ColdQueryParallel -benchmem ./internal/serve/
func BenchmarkColdQueryParallel(b *testing.B) {
	s := openChains(b, Options{CacheSize: -1, Spans: -1})
	ctx := context.Background()
	for _, sh := range coldShapes {
		goals := sh.goals()
		b.Run(sh.name, func(b *testing.B) {
			var next atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				n := int(next.Add(1)) * len(goals) / 2
				for ; pb.Next(); n++ {
					k := n % len(goals)
					ans, err := s.Query(ctx, goals[k])
					if err != nil || len(ans) != sh.want(k/coldChains) {
						b.Errorf("%s: %d answers, want %d (%v)", goals[k], len(ans), sh.want(k/coldChains), err)
						return
					}
				}
			})
		})
	}
}

const coldChains, coldChainLen = 4, 32

// chainSession serves coldChains link chains of coldChainLen on a 3×3
// grid, synced, with the given Options.CacheSize (-1: cache off).
func chainSession(tb testing.TB, cacheSize int) *Session {
	return openChains(tb, Options{CacheSize: cacheSize})
}

// openChains is chainSession with opts' CacheSize and Spans.
func openChains(tb testing.TB, opts Options) *Session {
	s, err := Open(context.Background(), reachSrc, snlog.Grid(3), Options{
		Deploy:       []snlog.Option{snlog.WithSeed(7)},
		CacheSize:    opts.CacheSize,
		BatchDelay:   -1,
		NoProvenance: true,
		Spans:        opts.Spans,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	for c := 0; c < coldChains; c++ {
		for i := 0; i < coldChainLen; i++ {
			if err := s.Inject((c+i)%9, eval.NewTuple("link", ast.Symbol(chainSym(c, i)), ast.Symbol(chainSym(c, i+1)))); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if _, err := s.Sync(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return s
}

func chainSym(c, i int) string { return fmt.Sprintf("s%d_%d", c, i) }

// coldShapes are the point queries over chainSession's chains, with the
// first argument bound (bf), the second (fb), or both (bb). Goal k
// names node k/coldChains of chain k%coldChains; want is its answer
// count.
type coldShape struct {
	name string
	goal func(c, i int) string
	want func(i int) int
}

var coldShapes = []coldShape{
	{"bf", func(c, i int) string { return fmt.Sprintf("reach(%s, X)", chainSym(c, i)) }, func(i int) int { return coldChainLen - i }},
	{"fb", func(c, i int) string { return fmt.Sprintf("reach(X, %s)", chainSym(c, i+1)) }, func(i int) int { return i + 1 }},
	{"bb", func(c, i int) string { return fmt.Sprintf("reach(%s, %s)", chainSym(c, i), chainSym(c, coldChainLen)) }, func(int) int { return 1 }},
}

// goals lists a shape's goals over every chain node.
func (sh coldShape) goals() []string {
	goals := make([]string, coldChains*coldChainLen)
	for k := range goals {
		goals[k] = sh.goal(k%coldChains, k/coldChains)
	}
	return goals
}

// hotRig serves four link chains of 32 on a 12×12 grid (the repository
// benchmark's serve_hot shape) to two TCP clients, and returns the 32
// reach(sC_I, X) goals with their answer counts, every goal already
// cached and its encoding rendered.
func hotRig(tb testing.TB) ([2]*Client, []string, map[string]int) {
	const chains, chainLen = 4, 32
	s, err := Open(context.Background(), reachSrc, snlog.Grid(12), Options{
		Deploy:       []snlog.Option{snlog.WithSeed(7)},
		BatchDelay:   -1,
		NoProvenance: true,
		Spans:        -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	sym := chainSym
	for c := 0; c < chains; c++ {
		for i := 0; i < chainLen; i++ {
			if err := s.Inject((c*chainLen+i)%144, eval.NewTuple("link", ast.Symbol(sym(c, i)), ast.Symbol(sym(c, i+1)))); err != nil {
				tb.Fatal(err)
			}
		}
	}
	ctx := context.Background()
	if _, err := s.Sync(ctx); err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := NewServer(s, ln)
	tb.Cleanup(func() { srv.Close() })
	var clients [2]*Client
	for i := range clients {
		if clients[i], err = Dial(ln.Addr().String()); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { clients[i].Close() })
	}
	goals, want := make([]string, 32), map[string]int{}
	for k := range goals {
		goals[k] = fmt.Sprintf("reach(%s, X)", sym(k%chains, k/chains))
		want[goals[k]] = chainLen - k/chains
		if _, err := clients[0].Query(ctx, goals[k]); err != nil {
			tb.Fatal(err)
		}
	}
	return clients, goals, want
}

// BenchmarkHotQuery is BenchmarkColdQuery's wire twin: cache hits over
// loopback TCP, two clients each cycling the 32 goals half a cycle
// apart, one op = one request. Its allocations are both sides': client
// encode, server decode, cache probe, the frame write, client decode.
//
//	go test -run '^$' -bench HotQuery -benchmem ./internal/serve/
func BenchmarkHotQuery(b *testing.B) {
	clients, goals, want := hotRig(b)
	ctx := context.Background()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := next.Add(1); n <= int64(b.N); n = next.Add(1) {
				g := goals[(int(n)+i*len(goals)/2)%len(goals)]
				if ans, err := c.Query(ctx, g); err != nil || len(ans) != want[g] {
					b.Errorf("%s: %d answers, want %d (%v)", g, len(ans), want[g], err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// hotFrames are the two frames of a serve_hot round trip, without
// their newlines: the query for reach(s1_2, X) and its cached answer,
// the 30 tuples of the rest of chain 1, as the server writes them.
func hotFrames() (req, resp string) {
	ts := make([]eval.Tuple, 30)
	for j := range ts {
		ts[j] = eval.NewTuple("reach", ast.Symbol(chainSym(1, 2)), ast.Symbol(chainSym(1, 3+j)))
	}
	q := appendRequest(nil, &Request{ID: 1234, Op: "query", Arg: "reach(s1_2, X)"})
	a := appendResponse(nil, &Response{ID: 1234, OK: true, AsOf: 1765, TraceID: 56789}, appendAnswer(nil, ts))
	return string(q[:len(q)-1]), string(a[:len(a)-1])
}

// BenchmarkDecodeResponse times the client's decode of one serve_hot
// answer frame (about 700 bytes, 30 tuples); MB/s is over the frame.
//
//	go test -run '^$' -bench Decode -benchmem ./internal/serve/
func BenchmarkDecodeResponse(b *testing.B) {
	_, line := hotFrames()
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		var r Response
		if err := decodeResponse(line, &r); err != nil || len(r.Tuples) != 30 {
			b.Fatalf("%d tuples, %v", len(r.Tuples), err)
		}
	}
}

// BenchmarkDecodeRequest times the server's decode of one serve_hot
// query frame.
func BenchmarkDecodeRequest(b *testing.B) {
	line, _ := hotFrames()
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		var r Request
		if err := decodeRequest(line, &r); err != nil || r.Arg == "" {
			b.Fatalf("%+v, %v", r, err)
		}
	}
}

// TestWireDecodeAllocs pins the codec's share of a cache-hit round
// trip: decoding the 30-tuple answer frame allocates exactly its
// []string (every tuple is a substring of the line), and decoding the
// query frame allocates nothing. A pushed event frame allocates its
// Event and no more. `make obs-guard` runs it.
func TestWireDecodeAllocs(t *testing.T) {
	req, resp := hotFrames()
	got := testing.AllocsPerRun(200, func() {
		var r Response
		if err := decodeResponse(resp, &r); err != nil || len(r.Tuples) != 30 {
			t.Fatalf("%d tuples, %v", len(r.Tuples), err)
		}
	})
	t.Logf("decodeResponse of a 30-tuple answer (%d bytes): %.1f allocs", len(resp), got)
	if got != 1 {
		t.Errorf("decoding a 30-tuple answer allocates %.1f objects, want 1 (the []string)", got)
	}
	got = testing.AllocsPerRun(200, func() {
		var r Request
		if err := decodeRequest(req, &r); err != nil || r.Op != "query" {
			t.Fatalf("%+v, %v", r, err)
		}
	})
	t.Logf("decodeRequest of a query (%d bytes): %.1f allocs", len(req), got)
	if got != 0 {
		t.Errorf("decoding a query allocates %.1f objects, want 0", got)
	}
	ev := appendResponse(nil, &Response{OK: true, Event: &Event{Sub: 3, Insert: true, Tuple: "reach(s1_2, s1_9)"}}, nil)
	event := string(ev[:len(ev)-1])
	got = testing.AllocsPerRun(200, func() {
		var r Response
		if err := decodeResponse(event, &r); err != nil || r.Event == nil || r.Event.Sub != 3 {
			t.Fatalf("%+v, %v", r, err)
		}
	})
	t.Logf("decodeResponse of an event (%d bytes): %.1f allocs", len(event), got)
	if got != 1 {
		t.Errorf("decoding an event allocates %.1f objects, want 1 (the Event)", got)
	}
}

// hotQueryAllocs is what one cache-hit round trip — client encode,
// server decode and probe, the memoised answer's frame, client decode
// of its 32 tuples — allocates on both sides (296 before the render-
// once memo, the builtin table built once and the append codec; 28
// before goals were parsed without a program and the cache key was
// rendered into a stack buffer).
const hotQueryAllocs = 8

// TestHotQueryAllocs holds one cache-hit round trip over TCP to its
// measured allocations + 5 %: a count, no wall clock. `make obs-guard`
// runs it.
func TestHotQueryAllocs(t *testing.T) {
	clients, goals, want := hotRig(t)
	ctx := context.Background()
	got := testing.AllocsPerRun(500, func() {
		if ans, err := clients[0].Query(ctx, goals[0]); err != nil || len(ans) != want[goals[0]] {
			t.Fatalf("%s: %d answers, want %d (%v)", goals[0], len(ans), want[goals[0]], err)
		}
	})
	t.Logf("cache-hit round trip: %.1f allocs (baseline %d, bound +5 %%)", got, hotQueryAllocs)
	if got > hotQueryAllocs*1.05 {
		t.Errorf("a cache-hit round trip allocates %.1f objects, baseline is %d + 5 %%", got, hotQueryAllocs)
	}
}

// TestQueryAllocs pins what a query allocates in-process, where the
// server's share of it is paid: a cache hit makes at most one
// allocation (the goal literal's argument slice), Query adds only the
// copy of the answer it hands out, a publish's sweep of the cache makes
// none, and a miss with the cache off — goal parse, one indexed probe,
// the match of every candidate and the sort — stays under 20 for each
// of BenchmarkColdQuery's shapes. All are counts, no wall clock;
// `make obs-guard` runs it.
func TestQueryAllocs(t *testing.T) {
	ctx := context.Background()
	s := chainSession(t, 0)
	goal := coldShapes[0].goal(0, 0)
	if _, err := s.Query(ctx, goal); err != nil {
		t.Fatal(err)
	}
	hit := testing.AllocsPerRun(200, func() {
		if _, _, _, err := s.query(ctx, goal, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	query := testing.AllocsPerRun(200, func() {
		if _, err := s.Query(ctx, goal); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cache hit: %.1f allocs in Session.query, %.1f in Query", hit, query)
	if hit > 1 {
		t.Errorf("a cache hit allocates %.1f objects in Session.query, want <= 1", hit)
	}
	if query != hit+1 {
		t.Errorf("Query allocates %.1f objects, want Session.query's %.1f + the answer copy", query, hit)
	}
	for _, sh := range coldShapes {
		if _, err := s.Query(ctx, sh.goal(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	entries := len(s.cache)
	sweep := testing.AllocsPerRun(200, func() { s.dropCached([]string{"link/2"}) }) // no entry is link/2's
	s.mu.Unlock()
	t.Logf("publish sweep of %d entries: %.1f allocs", entries, sweep)
	if sweep != 0 {
		t.Errorf("a publish's sweep of the cache allocates %.1f objects, want 0", sweep)
	}

	cold := chainSession(t, -1)
	for _, sh := range coldShapes {
		goals, n := sh.goals(), 0
		miss := testing.AllocsPerRun(len(goals), func() {
			k := n % len(goals)
			n++
			if ans, err := cold.Query(ctx, goals[k]); err != nil || len(ans) != sh.want(k/coldChains) {
				t.Fatalf("%s: %d answers, want %d (%v)", goals[k], len(ans), sh.want(k/coldChains), err)
			}
		})
		t.Logf("cache-off miss, %s: %.2f allocs", sh.name, miss)
		if miss >= 20 {
			t.Errorf("a cache-off %s miss allocates %.2f objects, want < 20", sh.name, miss)
		}
	}
}
