package serve

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	snlog "repro"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
)

// -seed replays one specific schedule; 0 (the default) runs the
// built-in set of seeds. Every failure log prints the seed to rerun:
//
//	go test ./internal/serve -run TestCacheSoundnessProperty -seed 12345
var soundnessSeed = flag.Int64("seed", 0, "cache-soundness schedule seed (0 = built-in set)")

// soundSrc mixes recursion with negation, and has a write (down/1)
// that can change alive/2 without touching reach/2, so schedules
// exercise entries that go stale and entries that must not.
const soundSrc = `
.base link/2.
.base down/1.
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
alive(X, Y) :- link(X, Y), NOT down(X).
.query reach/2.
.query alive/2.
`

// TestCacheSoundnessProperty drives random interleavings of
// Query/QueryStale/Inject/DeleteAt through a batched, small-cache
// session and a cache-disabled oracle session on the SAME schedule.
// Both sessions share the batching configuration (deadline disabled),
// so their flush points — and therefore their quiesced snapshots —
// coincide; the only difference is the cache. The property: the
// cached session must never serve an answer set that differs from the
// oracle's, fresh or stale.
func TestCacheSoundnessProperty(t *testing.T) {
	seeds := []int64{1, 7, 42, 1337}
	if *soundnessSeed != 0 {
		seeds = []int64{*soundnessSeed}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSoundnessSchedule(t, seed)
		})
	}
}

func runSoundnessSchedule(t *testing.T, seed int64) {
	const (
		ops       = 120
		batchSize = 4
		nodes     = 9 // Grid(3)
	)
	opts := Options{
		Deploy:     []snlog.Option{snlog.WithSeed(7)},
		BatchSize:  batchSize,
		BatchDelay: -1, // deterministic flush points
	}
	oracleOpts := opts
	oracleOpts.CacheSize = -1 // the oracle: same session, no cache
	opts.CacheSize = 16       // small: constant emptying and refill

	cached := openSession(t, soundSrc, opts)
	oracle := openSession(t, soundSrc, oracleOpts)

	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	sym := func(i int) string { return fmt.Sprintf("v%d", i) }
	goals := []string{
		"reach(v0, X)", "reach(X, v1)", "reach(X, X)", "reach(X, Y)",
		"reach(v0, v3)", "alive(X, Y)", "alive(v0, X)", "alive(v2, v3)",
	}
	var injected []struct {
		node int
		tup  eval.Tuple
	}
	servedAt := map[string]string{} // goal -> its predicate's published tuples when last served
	invalidated := 0
	apply := func(do func(s *Session) error) {
		t.Helper()
		cErr := do(cached)
		oErr := do(oracle)
		if (cErr == nil) != (oErr == nil) {
			t.Fatalf("seed %d: sessions disagree on write outcome: cached=%v oracle=%v", seed, cErr, oErr)
		}
	}
	for i := 0; i < ops; i++ {
		at := int64(10000 * (i + 1)) // strictly increasing absolute times
		switch r := rng.Intn(10); {
		case r < 3: // inject a link edge
			a, b := sym(rng.Intn(6)), sym(rng.Intn(6))
			node := rng.Intn(nodes)
			tup := eval.NewTuple("link", ast.Symbol(a), ast.Symbol(b))
			apply(func(s *Session) error { return s.InjectAt(at, node, tup) })
			injected = append(injected, struct {
				node int
				tup  eval.Tuple
			}{node, tup})
		case r < 4: // inject a down marker (negation fuel)
			node := rng.Intn(nodes)
			tup := eval.NewTuple("down", ast.Symbol(sym(rng.Intn(6))))
			apply(func(s *Session) error { return s.InjectAt(at, node, tup) })
			injected = append(injected, struct {
				node int
				tup  eval.Tuple
			}{node, tup})
		case r < 6 && len(injected) > 0: // delete a previously injected fact
			pick := injected[rng.Intn(len(injected))]
			apply(func(s *Session) error { return s.DeleteAt(at, pick.node, pick.tup) })
		default: // query, fresh or bounded-stale
			goal := goals[rng.Intn(len(goals))]
			maxLag := int64(0)
			if rng.Intn(2) == 0 {
				maxLag = int64(rng.Intn(2 * batchSize))
			}
			missesBefore := cached.Snapshot().Get("serve.cache.misses")
			cGot, cFr, cErr := cached.QueryStale(ctx, goal, maxLag)
			oGot, oFr, oErr := oracle.QueryStale(ctx, goal, maxLag)
			// A goal asked before whose predicate's published set has
			// changed since must miss: that is the whole invalidation rule.
			pred := goal[:strings.IndexByte(goal, '(')] + "/2"
			cached.viewMu.RLock()
			published := strings.Join(tupleKeys(cached.view.Tuples(pred)), " ")
			cached.viewMu.RUnlock()
			if was, asked := servedAt[goal]; asked && was != published {
				if cached.Snapshot().Get("serve.cache.misses") == missesBefore {
					t.Fatalf("seed %d op %d: %q was a hit although %s changed from [%s] to [%s]", seed, i, goal, pred, was, published)
				}
				invalidated++
			}
			servedAt[goal] = published
			if cErr != nil || oErr != nil {
				t.Fatalf("seed %d op %d: query %q failed: cached=%v oracle=%v", seed, i, goal, cErr, oErr)
			}
			if ck, ok := tupleKeys(cGot), tupleKeys(oGot); !equalStrings(ck, ok) {
				t.Fatalf("seed %d op %d: %q (maxLag %d) cached served %v, oracle %v",
					seed, i, goal, maxLag, ck, ok)
			}
			if cFr.Lag != oFr.Lag {
				t.Fatalf("seed %d op %d: %q lag disagrees: cached %d oracle %d (flush points diverged)",
					seed, i, goal, cFr.Lag, oFr.Lag)
			}
			if cFr.Lag > maxLag {
				t.Fatalf("seed %d op %d: served lag %d exceeds bound %d", seed, i, cFr.Lag, maxLag)
			}
		}
		// Invariant: every cached answer is what a fresh probe of the
		// published view returns, whatever syncs this op caused.
		checkCache(t, cached, goals)
		// Invariant: the buffer never holds a full batch (the
		// BatchSize-th write flushes synchronously).
		if lag := cached.Lag(); lag >= int64(batchSize) {
			t.Fatalf("seed %d op %d: lag %d >= batch size %d", seed, i, lag, batchSize)
		}
	}
	// Settle both and compare the full final state on every goal.
	if _, err := cached.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	for _, goal := range goals {
		cGot := answers(t, cached, goal)
		oGot := answers(t, oracle, goal)
		if ck, ok := tupleKeys(cGot), tupleKeys(oGot); !equalStrings(ck, ok) {
			t.Errorf("seed %d final: %q cached %v, oracle %v", seed, goal, ck, ok)
		}
	}
	// The schedule must have actually exercised the cache.
	snap := cached.Snapshot()
	if snap.Get("serve.cache.hits") == 0 {
		t.Errorf("seed %d: schedule produced zero cache hits — property vacuous", seed)
	}
	if invalidated == 0 {
		t.Errorf("seed %d: no repeated goal met a changed predicate — invalidation untested", seed)
	}
}

func tupleKeys(ts []eval.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
