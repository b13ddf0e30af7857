package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	snlog "repro"
	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
)

// checkCache holds the cache to its invariant: every entry is what a
// fresh probe of the published view returns for its goal. goals are
// the goals the caller may have asked; an entry under any other key
// fails the check, since it could not be probed again. It takes viewMu
// and mu, so it may run beside queries and syncs.
func checkCache(t *testing.T, s *Session, goals []string) {
	t.Helper()
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	checked := 0
	for _, g := range goals {
		lit, err := s.c.Engine.ParseGoal(g)
		if err != nil {
			t.Fatal(err)
		}
		e := s.cache[string(core.AppendCanonicalGoal(nil, lit))]
		if e == nil {
			continue
		}
		checked++
		if got, want := tupleKeys(e.answers), tupleKeys(s.view.Match(lit)); !equalStrings(got, want) {
			t.Fatalf("cached %s = %v, the published view gives %v", g, got, want)
		}
	}
	if checked != len(s.cache) {
		t.Fatalf("the cache holds %d entries, %d of them under the goals asked", len(s.cache), checked)
	}
}

// A miss stores its answer before it leaves its section of viewMu, so
// a publish, which needs the write side, cannot land between its probe
// and its store. Holding mu stalls a miss at its store; viewMu must
// stay held until mu is released, on the path that builds an index
// under the write side and on the one that probes under the read side.
func TestMissStoresInsideItsRead(t *testing.T) {
	ctx := context.Background()
	s := openSession(t, reachSrc, Options{BatchDelay: -1})
	for _, l := range []eval.Tuple{link("a", "b"), link("b", "c")} {
		if err := s.Inject(0, l); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	goals := []string{"reach(a, X)", "reach(b, X)"} // the first builds the bf index
	for i, g := range goals {
		lit, err := s.c.Engine.ParseGoal(g)
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		done := make(chan struct{})
		go func() {
			s.miss(lit, core.AppendCanonicalGoal(nil, lit))
			close(done)
		}()
		// The miss has reached its store once viewMu stays held.
		var heldSince time.Time
		for deadline := time.Now().Add(5 * time.Second); heldSince.IsZero() || time.Since(heldSince) < 20*time.Millisecond; {
			if s.viewMu.TryLock() {
				s.viewMu.Unlock()
				heldSince = time.Time{}
			} else if heldSince.IsZero() {
				heldSince = time.Now()
			}
			if time.Now().After(deadline) {
				s.mu.Unlock()
				<-done
				t.Fatalf("%s: a miss stalled at its store does not hold viewMu", g)
			}
			time.Sleep(time.Millisecond)
		}
		s.mu.Unlock()
		<-done
		if n := s.cacheLen(); n != i+1 {
			t.Fatalf("%s: the cache holds %d entries, want %d", g, n, i+1)
		}
	}
	checkCache(t, s, goals)
}

// Two goroutines miss over BenchmarkColdQuery's goals — every shape,
// so their first probes find the view's indexes missing and build
// them beside each other's probes — while a third injects a chain's
// eight-link tail, syncs, deletes it and syncs again. Every answer must
// be the goal's answer over the chains with the tail or without it,
// never a view half published. Each deletion leaves the tail's reach
// tuples dead in the view's table; within a few cycles they pass half
// of it, the table is compacted and its indexes are dropped, so the
// misses build them again while the others probe. With the cache on,
// the cache is checked against the view after every sync. Run under
// -race (make race).
func TestConcurrentMissesBesideWriter(t *testing.T) {
	for _, size := range []int{-1, 0} {
		t.Run(fmt.Sprintf("cache=%d", size), func(t *testing.T) {
			concurrentMisses(t, size)
		})
	}
}

func concurrentMisses(t *testing.T, cacheSize int) {
	const tailLen, cycles = 8, 12
	ctx := context.Background()
	s := chainSession(t, cacheSize)
	var chains, tail []eval.Tuple
	for c := 0; c < coldChains; c++ {
		for i := 0; i < coldChainLen; i++ {
			chains = append(chains, eval.NewTuple("link", ast.Symbol(chainSym(c, i)), ast.Symbol(chainSym(c, i+1))))
		}
	}
	for i := coldChainLen; i < coldChainLen+tailLen; i++ {
		tail = append(tail, eval.NewTuple("link", ast.Symbol(chainSym(0, i)), ast.Symbol(chainSym(0, i+1))))
	}
	without, err := snlog.Eval(reachSrc, chains)
	if err != nil {
		t.Fatal(err)
	}
	with, err := snlog.Eval(reachSrc, append(chains[:len(chains):len(chains)], tail...))
	if err != nil {
		t.Fatal(err)
	}
	var goals []string
	legal := map[string][2]string{} // goal -> its answer without and with the tail
	for _, sh := range coldShapes {
		for _, g := range sh.goals() {
			lit, err := s.c.Engine.ParseGoal(g)
			if err != nil {
				t.Fatal(err)
			}
			goals = append(goals, g)
			legal[g] = [2]string{strings.Join(tupleKeys(without.Match(lit)), " "), strings.Join(tupleKeys(with.Match(lit)), " ")}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := r * len(goals) / 2; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				g := goals[n%len(goals)]
				got, _, err := s.QueryStale(ctx, g, -1)
				if err != nil {
					t.Error(err)
					return
				}
				if keys := strings.Join(tupleKeys(got), " "); keys != legal[g][0] && keys != legal[g][1] {
					t.Errorf("%s = [%s]\nwant the answer without the tail [%s] or with it [%s]", g, keys, legal[g][0], legal[g][1])
					return
				}
			}
		}()
	}
	stopReaders := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopReaders()
	syncAndCheck := func() int64 {
		now, err := s.Sync(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if cacheSize >= 0 {
			checkCache(t, s, goals)
		}
		return now
	}
	for i := 0; i < cycles; i++ {
		for j, l := range tail {
			if err := s.Inject(j%9, l); err != nil {
				t.Fatal(err)
			}
		}
		now := syncAndCheck()
		for j, l := range tail {
			if err := s.DeleteAt(now+1, j%9, l); err != nil {
				t.Fatal(err)
			}
		}
		syncAndCheck()
	}
	stopReaders()
	for _, g := range goals {
		if keys := strings.Join(tupleKeys(answers(t, s, g)), " "); keys != legal[g][0] {
			t.Fatalf("after the last deletion %s = [%s], want [%s]", g, keys, legal[g][0])
		}
	}
	t.Logf("%d queries, %d misses, read-concurrency peak %d", s.queries.Value(), s.misses.Value(), s.readerPeak.Load())
}
