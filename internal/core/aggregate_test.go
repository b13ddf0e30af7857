package core

import (
	"fmt"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/nsim"
)

// TAG-style in-network aggregation: the sink collects min/count/avg over
// a distributed stream through a depth-staggered convergecast.
func TestTAGAggregation(t *testing.T) {
	src := `
.base reading/2.
coldest(min<T>) :- reading(N, T).
n(count<N>) :- reading(N, T).
mean(avg<T>) :- reading(N, T).
grouped(N, max<T>) :- reading(N, T).
`
	e, nw := buildGrid(t, 5, src, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 19})
	// One reading per node: value = node id + 10; node 7 reports twice.
	for _, n := range nw.Nodes() {
		e.InjectAt(nsim.Time(int(n.ID)*3), n.ID,
			eval.NewTuple("reading", ast.Symbol(fmt.Sprintf("n%d", n.ID)), ast.Int64(int64(n.ID)+10)))
	}
	e.InjectAt(200, 7, eval.NewTuple("reading", ast.Symbol("n7"), ast.Int64(99)))
	if err := e.CollectAggregateAt(3000, "coldest/1", 0); err != nil {
		t.Fatal(err)
	}
	if err := e.CollectAggregateAt(4000, "n/1", 0); err != nil {
		t.Fatal(err)
	}
	if err := e.CollectAggregateAt(5000, "mean/1", 12); err != nil {
		t.Fatal(err)
	}
	if err := e.CollectAggregateAt(6000, "grouped/2", 3); err != nil {
		t.Fatal(err)
	}
	nw.Run(0)

	cold := e.AggregateResult("coldest/1")
	if len(cold) != 1 || cold[0].Args[0].Int != 10 {
		t.Errorf("coldest = %v", cold)
	}
	cnt := e.AggregateResult("n/1")
	if len(cnt) != 1 || cnt[0].Args[0].Int != 26 {
		t.Errorf("count = %v (want 26 readings)", cnt)
	}
	mean := e.AggregateResult("mean/1")
	// sum = (10..34) + 99 = 550 + 99 = 649 over 26 readings.
	if len(mean) != 1 || mean[0].Args[0].Float != 649.0/26.0 {
		t.Errorf("mean = %v", mean)
	}
	grouped := e.AggregateResult("grouped/2")
	if len(grouped) != 25 {
		t.Fatalf("grouped = %d groups, want 25", len(grouped))
	}
	for _, g := range grouped {
		if g.Args[0].Str == "n7" && g.Args[1].Int != 99 {
			t.Errorf("max for n7 = %v", g.Args[1])
		}
	}
}

// The TAG collection matches the centralized evaluator's multiset
// aggregate semantics: builtin filters in the body, and a group argument
// a built-in binds, with two aggregates in one head.
func TestTAGMatchesOracleAggregates(t *testing.T) {
	src := `
.base reading/2.
stats(N, max<T>) :- reading(N, T), T > 5.
zone(Z, count<T>, max<T>) :- reading(N, T), Z = T mod 3, T > 2.
`
	e, nw := buildGrid(t, 4, src, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 20})
	var base []eval.Tuple
	for i := 0; i < 10; i++ {
		tup := eval.NewTuple("reading", ast.Symbol(fmt.Sprintf("g%d", i%3)), ast.Int64(int64(i)))
		base = append(base, tup)
		e.InjectAt(nsim.Time(i*5), nsim.NodeID(i%nw.Len()), tup)
	}
	preds := []string{"stats/2", "zone/3"}
	for i, pred := range preds {
		if err := e.CollectAggregateAt(nsim.Time(2000+1000*i), pred, 0); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(0)

	ev, err := eval.New(mustProg(t, src), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ev.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range preds {
		got := e.AggregateResult(pred)
		wantT := want.Tuples(pred)
		if len(got) != len(wantT) {
			t.Fatalf("%s: got %d groups, oracle %d\ngot: %v\nwant: %v", pred, len(got), len(wantT), got, wantT)
		}
		gotByKey := map[string]bool{}
		for _, g := range got {
			gotByKey[g.Key()] = true
		}
		for _, w := range wantT {
			if !gotByKey[w.Key()] {
				t.Errorf("%s: missing group %v", pred, w)
			}
		}
	}
}

// Aggregation over a DERIVED stream: TAG collects from the home nodes
// where derived tuples live.
func TestTAGOverDerivedStream(t *testing.T) {
	src := `
.base temp/2.
hot(N, T) :- temp(N, T), T > 90.
nhot(count<N>) :- hot(N, T).
`
	e, nw := buildGrid(t, 5, src, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 21})
	for i := 0; i < 10; i++ {
		v := int64(80 + i*3) // 80..107; values > 90 from i >= 4
		e.InjectAt(nsim.Time(i*7), nsim.NodeID(i*2),
			eval.NewTuple("temp", ast.Symbol(fmt.Sprintf("n%d", i*2)), ast.Int64(v)))
	}
	if err := e.CollectAggregateAt(4000, "nhot/1", 0); err != nil {
		t.Fatal(err)
	}
	nw.Run(0)
	got := e.AggregateResult("nhot/1")
	if len(got) != 1 || got[0].Args[0].Int != 6 {
		t.Errorf("nhot = %v (want 6)", got)
	}
}

// Aggregation costs messages (build flood + partials) accounted under
// their own kinds; a second epoch reflects newer data.
func TestTAGMessageAccountingAndReepoch(t *testing.T) {
	src := `
.base reading/2.
total(sum<T>) :- reading(N, T).
`
	e, nw := buildGrid(t, 5, src, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 22})
	for i := 0; i < 5; i++ {
		e.InjectAt(nsim.Time(i*3), nsim.NodeID(i*5),
			eval.NewTuple("reading", ast.Symbol(fmt.Sprintf("n%d", i)), ast.Int64(int64(i))))
	}
	if err := e.CollectAggregateAt(2000, "total/1", 0); err != nil {
		t.Fatal(err)
	}
	nw.Run(0)
	if nw.KindCounts()[kindAggBuild] == 0 {
		t.Error("no tree-build messages")
	}
	if nw.KindCounts()[kindAggPartial] == 0 {
		t.Error("no partial-state messages")
	}
	got := e.AggregateResult("total/1")
	if len(got) != 1 || got[0].Args[0].Int != 0+1+2+3+4 {
		t.Errorf("total = %v", got)
	}
	// New data, new epoch.
	e.InjectAt(nw.Now()+10, 3, eval.NewTuple("reading", ast.Symbol("late"), ast.Int64(100)))
	if err := e.CollectAggregateAt(nw.Now()+3000, "total/1", 0); err != nil {
		t.Fatal(err)
	}
	nw.Run(0)
	got = e.AggregateResult("total/1")
	if len(got) != 1 || got[0].Args[0].Int != 110 {
		t.Errorf("second epoch total = %v (want 110)", got)
	}
}

func TestCollectAggregateUnknownPredicate(t *testing.T) {
	e, _ := buildGrid(t, 3, `.base s/1.
d(X) :- s(X).`, Config{}, nsim.Config{Seed: 23})
	if err := e.CollectAggregateAt(0, "nosuch/1", 0); err == nil {
		t.Fatal("unknown aggregate predicate should error")
	}
}

// An epoch's groups come out of AggregateResult in group-key order: ten
// groups in map order would be sorted by chance once in 10! runs.
func TestAggregateResultInKeyOrder(t *testing.T) {
	src := `
.base reading/2.
peak(G, max<T>) :- reading(G, T).
.query peak/2.
`
	e, nw := buildGrid(t, 4, src, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 24})
	var base []eval.Tuple
	for i := 0; i < 30; i++ {
		tup := eval.NewTuple("reading", ast.Symbol(fmt.Sprintf("g%d", (7*i)%10)), ast.Int64(int64(i)))
		base = append(base, tup)
		e.InjectAt(nsim.Time(i*5), nsim.NodeID(i%nw.Len()), tup)
	}
	if err := e.CollectAggregateAt(2000, "peak/2", 0); err != nil {
		t.Fatal(err)
	}
	nw.Run(0)

	ev, err := eval.New(mustProg(t, src), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ev.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	wantT := want.Tuples("peak/2")
	if len(wantT) != 10 {
		t.Fatalf("oracle has %d groups, want 10", len(wantT))
	}
	if got := e.AggregateResult("peak/2"); fmt.Sprint(got) != fmt.Sprint(wantT) {
		t.Errorf("AggregateResult not in key order:\n got %v\nwant %v", got, wantT)
	}
}
