package serve

import (
	"context"
	"fmt"
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
