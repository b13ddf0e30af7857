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
	const chains, chainLen = 4, 32
	s, err := Open(context.Background(), reachSrc, snlog.Grid(3), Options{
		Deploy:       []snlog.Option{snlog.WithSeed(7)},
		CacheSize:    -1,
		BatchDelay:   -1,
		NoProvenance: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	sym := func(c, i int) string { return fmt.Sprintf("s%d_%d", c, i) }
	for c := 0; c < chains; c++ {
		for i := 0; i < chainLen; i++ {
			if err := s.Inject((c+i)%9, eval.NewTuple("link", ast.Symbol(sym(c, i)), ast.Symbol(sym(c, i+1)))); err != nil {
				b.Fatal(err)
			}
		}
	}
	ctx := context.Background()
	if _, err := s.Sync(ctx); err != nil {
		b.Fatal(err)
	}
	// Goal k names node k/chains of chain k%chains; want is its answer count.
	shapes := []struct {
		name string
		goal func(c, i int) string
		want func(i int) int
	}{
		{"bf", func(c, i int) string { return fmt.Sprintf("reach(%s, X)", sym(c, i)) }, func(i int) int { return chainLen - i }},
		{"fb", func(c, i int) string { return fmt.Sprintf("reach(X, %s)", sym(c, i+1)) }, func(i int) int { return i + 1 }},
		{"bb", func(c, i int) string { return fmt.Sprintf("reach(%s, %s)", sym(c, i), sym(c, chainLen)) }, func(int) int { return 1 }},
	}
	for _, sh := range shapes {
		goals := make([]string, chains*chainLen)
		for k := range goals {
			goals[k] = sh.goal(k%chains, k/chains)
		}
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				k := n % len(goals)
				ans, err := s.Query(ctx, goals[k])
				if err != nil || len(ans) != sh.want(k/chains) {
					b.Fatalf("%s: %d answers, want %d (%v)", goals[k], len(ans), sh.want(k/chains), err)
				}
			}
		})
	}
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
	sym := func(c, i int) string { return fmt.Sprintf("s%d_%d", c, i) }
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

// hotQueryAllocs is what one cache-hit round trip — client encode,
// server decode and probe, the memoised answer's frame, client decode
// of its 32 tuples — allocates on both sides (296 before the render-
// once memo, the builtin table built once and the append codec).
const hotQueryAllocs = 28

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
