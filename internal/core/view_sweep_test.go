package core_test

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
)

// TestDerivedViewMatchesWalk holds the home counting a serving session
// publishes with (core.View, fed the ResultLog of every derived
// predicate from the first run on) to Engine.Derived's walk of the
// homes, on internal/check's 24 sweep seeds with faults on every one of
// them — a crashed or cut-off home is what makes a second home for a
// tuple, and so the count, matter: at the faulted quiescent state before
// any repair, and again after a Replay has wiped and rebuilt everything,
// both for a fresh view fed the whole log and for the first view fed
// the rest. Seed 89 is added because none of the 24 leaves a second
// home: of seeds 0–199 only 89 does. (Before a duplicated walker copy
// was dropped on receipt, its strayed results made second homes on most
// seeds.)
func TestDerivedViewMatchesWalk(t *testing.T) {
	doubleHomed := 0
	seeds := make([]int64, 0, 25)
	for seed := int64(0); seed < 24; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range append(seeds, 89) {
		churn := 2 + int(seed%2)*2
		t.Run(fmt.Sprintf("seed%d/churn%d", seed, churn), func(t *testing.T) {
			// MaxRepair < 0: compare-only, the faulted state is left as it is.
			res, err := check.Run(check.Config{Seed: seed, Churn: churn, MaxRepair: -1})
			if err != nil {
				t.Fatal(err)
			}
			e := res.Engine
			preds := e.Analysis().Program.DerivedPredicates()
			same := func(when string, v *core.View) {
				t.Helper()
				for _, pred := range preds {
					view, walk := v.Tuples(pred), e.Derived(pred)
					if len(view) != len(walk) {
						t.Fatalf("%s, %s: the view has %d tuples, the walk %d\nview %v\nwalk %v", when, pred, len(view), len(walk), view, walk)
					}
					for i := range walk {
						if view[i].Key() != walk[i].Key() {
							t.Fatalf("%s, %s[%d]: the view has %s, the walk %s", when, pred, i, view[i], walk[i])
						}
					}
				}
			}
			fed := func(log []core.ResultEvent) *core.View {
				v := core.NewView()
				v.Apply(v.Net(log))
				return v
			}
			v := fed(e.ResultLog)
			same("faulted", v)
			doubleHomed += core.MultiHomed(e)
			faulted := len(e.ResultLog)
			e.Replay()
			e.Network().Run(0)
			same("replayed, the whole log", fed(e.ResultLog))
			v.Apply(v.Net(e.ResultLog[faulted:]))
			same("replayed, the rest of the log", v)
			if n := core.MultiHomed(e); n != 0 {
				t.Errorf("replayed: %d tuples still have a second home", n)
			}
		})
	}
	if doubleHomed == 0 {
		t.Error("no seed left a tuple with a second home: the home count went untested")
	}
}
