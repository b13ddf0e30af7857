package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	snlog "repro"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
)

// winSrc is E9's windowed two-stream join.
const winSrc = `
.base ra/2.
.base rb/2.
.window ra/2 400.
.window rb/2 400.
out(X, Z) :- ra(X, Y), rb(Y, Z).
.query out/2.
`

// TestQueryIsWhatTheNetworkDerived holds Query to the one source of
// truth: the derived set the network maintains (Cluster.Results).
//
// The windowed half is the program the old serving path got wrong: it
// rebuilt answers centrally from every base fact ever written, and the
// centralized evaluator never reads .window. The generated half runs
// internal/check's programs (all its timeless shapes) under insert and
// delete churn, fault-free, and after every Sync compares three things
// on bf/fb/bb/ff goals: Query, the goal filter over Results, and the
// same filter over snlog.Eval of the surviving base facts — the
// centralized evaluator stays the independent reference, it is just not
// on the serving path any more. Stale queries before the Sync leave
// pre-write answers in the cache, so the comparison after it also
// checks that a changed predicate's entries went stale.
func TestQueryIsWhatTheNetworkDerived(t *testing.T) {
	t.Run("window", func(t *testing.T) {
		s := openSession(t, winSrc, Options{BatchDelay: -1})
		pair := func(pred string, a, b int64) eval.Tuple {
			return eval.NewTuple(pred, ast.Int64(a), ast.Int64(b))
		}
		// ra(1,7) is 4,600 ticks out of its window when rb(7,2) arrives;
		// ra(2,8) and rb(8,3) are 100 apart.
		for _, w := range []struct {
			at   int64
			node int
			tup  eval.Tuple
		}{{0, 0, pair("ra", 1, 7)}, {5000, 3, pair("rb", 7, 2)}, {6000, 0, pair("ra", 2, 8)}, {6100, 3, pair("rb", 8, 3)}} {
			if err := s.InjectAt(w.at, w.node, w.tup); err != nil {
				t.Fatal(err)
			}
		}
		for goal, want := range map[string]int{"out(1, X)": 0, "out(2, X)": 1, "out(X, Y)": 1} {
			got := answers(t, s, goal)
			if len(got) != want {
				t.Errorf("%s = %v, want %d answers", goal, got, want)
			}
			if net := filterGoal(t, s, goal, s.c.Results("out/2")); !equalStrings(tupleKeys(got), tupleKeys(net)) {
				t.Errorf("%s = %v, the network derived %v", goal, got, net)
			}
		}
	})
	// The goals of the deleted TestMagicAgreesWithEngine, which compared
	// answer counts only.
	t.Run("cycle", func(t *testing.T) {
		s := openSession(t, reachSrc, Options{})
		base := []eval.Tuple{link("a", "b"), link("b", "c"), link("c", "a"), link("d", "e")}
		for i, l := range base {
			if err := s.Inject(i%9, l); err != nil {
				t.Fatal(err)
			}
		}
		assertThreeWay(t, s, reachSrc, base,
			[]string{"reach(a, X)", "reach(X, e)", "reach(X, Y)", "reach(d, e)", "reach(e, d)", "reach(X, X)"})
	})
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runOracleSchedule(t, seed) })
	}
}

func runOracleSchedule(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	g := check.Generate(r)
	s, err := Open(context.Background(), g.Src, snlog.Grid(4), Options{
		Deploy:     []snlog.Option{snlog.WithSeed(seed)},
		BatchDelay: -1,
	})
	if err != nil {
		t.Fatalf("seed %d: %v\n%s", seed, err, g.Src)
	}
	defer s.Close()
	ctx := context.Background()

	var goals []string
	for _, pred := range g.Deriveds {
		goals = append(goals, goalsFor(r, pred)...)
	}
	type placed struct {
		node int
		tup  eval.Tuple
	}
	live := map[string]placed{}
	surviving := func() []eval.Tuple {
		keys := make([]string, 0, len(live))
		for k := range live {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]eval.Tuple, 0, len(keys))
		for _, k := range keys {
			out = append(out, live[k].tup)
		}
		return out
	}
	settled := surviving() // the base facts of the last quiesced state
	now := int64(0)
	for round := 0; round < 12; round++ {
		// One to three writes, stale reads in between (they must see the
		// last quiesced state, and they fill the cache with it) ...
		for w, n := 0, 1+r.Intn(3); w < n; w++ {
			if keys := sortedKeys(live); len(keys) > 0 && r.Intn(100) < 35 {
				p := live[keys[r.Intn(len(keys))]]
				delete(live, p.tup.Key())
				if err := s.DeleteAt(now+1+int64(w), p.node, p.tup); err != nil {
					t.Fatal(err)
				}
			} else {
				p := placed{r.Intn(16), g.RandomBase(r)}
				if _, dup := live[p.tup.Key()]; dup {
					continue
				}
				live[p.tup.Key()] = p
				if err := s.Inject(p.node, p.tup); err != nil {
					t.Fatal(err)
				}
			}
			goal := goals[r.Intn(len(goals))]
			got, _, err := s.QueryStale(ctx, goal, -1)
			if err != nil {
				t.Fatal(err)
			}
			if want := filterGoal(t, s, goal, evalPred(t, g.Src, settled, goal, s)); !equalStrings(tupleKeys(got), tupleKeys(want)) {
				t.Fatalf("seed %d round %d: stale %s = %v, the last quiesced state has %v\n%s", seed, round, goal, got, want, g.Src)
			}
		}
		// ... then the Sync, and every goal three ways (the first Query of
		// a goal is fresh, a repeat is a hit).
		if now, err = s.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		settled = surviving()
		assertThreeWay(t, s, g.Src, settled, goals)
		assertThreeWay(t, s, g.Src, settled, goals[:2])
	}
	snap := s.Snapshot()
	if snap.Get("serve.cache.hits") == 0 || snap.Get("serve.cache.evictions") == 0 {
		t.Errorf("seed %d: hits=%d evictions=%d — the cache was never read or never went stale",
			seed, snap.Get("serve.cache.hits"), snap.Get("serve.cache.evictions"))
	}
}

// goalsFor draws one goal of each binding pattern for a derived
// predicate of the generator (arity 2 over small integers, or d11's
// single compound argument).
func goalsFor(r *rand.Rand, pred string) []string {
	name := pred[:len(pred)-2]
	a, b := r.Intn(4), r.Intn(4)
	if pred == "d11/1" {
		return []string{
			fmt.Sprintf("%s(pr(%d, %d))", name, a, b), fmt.Sprintf("%s(pr(%d, X))", name, a), name + "(X)",
		}
	}
	return []string{
		fmt.Sprintf("%s(%d, X)", name, a), fmt.Sprintf("%s(X, %d)", name, b),
		fmt.Sprintf("%s(%d, %d)", name, a, b), name + "(X, Y)", name + "(X, X)",
	}
}

// assertThreeWay compares, per goal: Session.Query, the goal filter
// over the network's derived set, and the goal filter over the
// centralized evaluation of the given base facts.
func assertThreeWay(t *testing.T, s *Session, src string, base []eval.Tuple, goals []string) {
	t.Helper()
	for _, goal := range goals {
		got := tupleKeys(answers(t, s, goal))
		lit, err := s.c.Engine.ParseGoal(goal)
		if err != nil {
			t.Fatal(err)
		}
		net := tupleKeys(core.MatchGoal(lit, s.c.Results(lit.PredKey())))
		ref := tupleKeys(filterGoal(t, s, goal, evalPred(t, src, base, goal, s)))
		if !equalStrings(got, net) || !equalStrings(got, ref) {
			t.Fatalf("%s: Query %v, Results filtered %v, snlog.Eval of the surviving facts %v\nbase %v\n%s",
				goal, got, net, ref, base, src)
		}
	}
}

// evalPred is the centralized evaluator's extension of the goal's
// predicate over base.
func evalPred(t *testing.T, src string, base []eval.Tuple, goal string, s *Session) []eval.Tuple {
	t.Helper()
	db, err := snlog.Eval(src, base)
	if err != nil {
		t.Fatal(err)
	}
	lit, err := s.c.Engine.ParseGoal(goal)
	if err != nil {
		t.Fatal(err)
	}
	return db.Tuples(lit.PredKey())
}

func filterGoal(t *testing.T, s *Session, goal string, tuples []eval.Tuple) []eval.Tuple {
	t.Helper()
	lit, err := s.c.Engine.ParseGoal(goal)
	if err != nil {
		t.Fatal(err)
	}
	return core.MatchGoal(lit, tuples)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// A base fact reported twice and deleted once is gone: Query and a
// Subscribe stream agree, as does the centralized evaluation of what
// survives (nothing). The engine used to remember only the latest
// generation of a tuple, so the earlier one kept reach(a, b) derived for
// good, while the session's private ledger said it was deleted.
func TestReReportedFactCanBeDeleted(t *testing.T) {
	for _, second := range []int{0, 5} {
		t.Run(fmt.Sprintf("second report at node %d", second), func(t *testing.T) {
			s := openSession(t, reachSrc, Options{BatchDelay: -1})
			ctx := context.Background()
			sub, err := s.Subscribe("reach/2")
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			var now int64
			for _, node := range []int{0, second} {
				if err := s.Inject(node, link("a", "b")); err != nil {
					t.Fatal(err)
				}
				if now, err = s.Sync(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if got := answers(t, s, "reach(a, X)"); len(got) != 1 {
				t.Fatalf("reach(a, X) = %v before the deletion", got)
			}
			if err := s.DeleteAt(now+1, 0, link("a", "b")); err != nil {
				t.Fatal(err)
			}
			assertThreeWay(t, s, reachSrc, nil, []string{"reach(a, X)", "reach(X, Y)"})
			if got := answers(t, s, "reach(a, X)"); len(got) != 0 {
				t.Errorf("reach(a, X) = %v after the deletion", got)
			}
			var ups []Update
			for len(ups) < 2 {
				select {
				case u := <-sub.C():
					ups = append(ups, u)
				case <-time.After(time.Second):
					t.Fatalf("subscription delivered %+v, want reach(a, b) appearing and disappearing", ups)
				}
			}
			if !ups[0].Insert || ups[1].Insert || ups[1].Tuple.Key() != ups[0].Tuple.Key() {
				t.Errorf("subscription delivered %+v, want reach(a, b) appearing and disappearing", ups)
			}
		})
	}
}
