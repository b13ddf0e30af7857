package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datalog/ast"
)

// TestAggregateGroupKeyCollision pins the length-prefixed group-key
// encoding: group values crafted so that naive string concatenation of
// their renderings could collide must still land in distinct groups.
func TestAggregateGroupKeyCollision(t *testing.T) {
	src := `
.base obs/3.
tally(A, B, count<V>) :- obs(A, B, V).
`
	// Pairs whose concatenations (under separator-based encodings)
	// coincide: ("a|b", "c") vs ("a", "b|c") and quote-adversarial
	// values. Each must form its own group.
	facts := []Tuple{
		NewTuple("obs", ast.Symbol("a|b"), ast.Symbol("c"), ast.Int64(1)),
		NewTuple("obs", ast.Symbol("a"), ast.Symbol("b|c"), ast.Int64(2)),
		NewTuple("obs", ast.String_(`x"|"y`), ast.String_("z"), ast.Int64(3)),
		NewTuple("obs", ast.String_(`x`), ast.String_(`"|"y"z`), ast.Int64(4)),
		NewTuple("obs", ast.Symbol("a|b"), ast.Symbol("c"), ast.Int64(5)),
	}
	got := mustEval(t, src, facts).Tuples("tally/3")
	if len(got) != 4 {
		t.Fatalf("want 4 distinct groups, got %d: %v", len(got), got)
	}
	// The duplicated (a|b, c) group must have count 2, others 1.
	for _, tup := range got {
		want := int64(1)
		if tup.Args[0].Equal(ast.Symbol("a|b")) {
			want = 2
		}
		if tup.Args[2].Int != want {
			t.Errorf("group %v count = %v, want %d", tup, tup.Args[2], want)
		}
	}
}

var keySink string // keeps the measured calls from being optimized away

// TestArgKeyInjective pins the length-prefixed index-key encoding
// against splice collisions.
func TestArgKeyInjective(t *testing.T) {
	both := []int{0, 1}
	a := ArgKey([]ast.Term{ast.Symbol("ab"), ast.Symbol("c")}, both)
	b := ArgKey([]ast.Term{ast.Symbol("a"), ast.Symbol("bc")}, both)
	if a == b {
		t.Fatalf("ArgKey collision: %q", a)
	}
	if got := ArgKey([]ast.Term{ast.Symbol("x"), ast.Symbol("y"), ast.Symbol("z")}, []int{0, 2}); got !=
		ArgKey([]ast.Term{ast.Symbol("x"), ast.Symbol("z")}, both) {
		t.Fatalf("ArgKey projection mismatch: %q", got)
	}
	// It builds in stack scratch: the result string is the only
	// allocation.
	args := []ast.Term{ast.Symbol("alpha"), ast.Int64(1234567), ast.Symbol("omega")}
	cols := []int{0, 2}
	if n := testing.AllocsPerRun(100, func() { keySink = ArgKey(args, cols) }); n > 1 {
		t.Errorf("ArgKey allocates %v times per key, want <= 1", n)
	}
}

// TestDeleteCompactPreservesSemantics exercises tombstoning + compaction:
// heavy delete/reinsert churn must leave exactly the surviving tuples.
func TestDeleteCompactPreservesSemantics(t *testing.T) {
	db := NewDatabase()
	r := rand.New(rand.NewSource(9))
	live := map[string]Tuple{}
	for i := 0; i < 2000; i++ {
		tup := NewTuple("x", ast.Int64(int64(r.Intn(200))))
		if r.Intn(3) == 0 {
			if db.Delete(tup) {
				delete(live, tup.Key())
			}
		} else {
			if db.Insert(tup) {
				live[tup.Key()] = tup
			}
		}
	}
	if db.Count("x/1") != len(live) {
		t.Fatalf("count = %d, want %d", db.Count("x/1"), len(live))
	}
	for _, tup := range db.Tuples("x/1") {
		if _, ok := live[tup.Key()]; !ok {
			t.Fatalf("unexpected tuple %v", tup)
		}
	}
	// Index probes after churn still see exactly the live tuples.
	for k, tup := range live {
		if !db.Contains(tup) {
			t.Fatalf("lost tuple %s", k)
		}
	}
}

// TestCompactReleasesDeadTuples: compaction leaves no dropped tuple in
// the vacated tail of the slot array, where it would stay reachable for
// as long as the table lives.
func TestCompactReleasesDeadTuples(t *testing.T) {
	db := NewDatabase()
	for i := 0; i < 100; i++ {
		db.Insert(NewTuple("x", ast.Int64(int64(i))))
	}
	tab := db.tables["x/1"]
	// The 51st deletion leaves more dead slots than live ones.
	for i := 0; i < 51; i++ {
		db.Delete(NewTuple("x", ast.Int64(int64(i))))
	}
	if len(tab.slots) != 49 || tab.dead != 0 {
		t.Fatalf("table did not compact: %d slots, %d dead", len(tab.slots), tab.dead)
	}
	for i, sl := range tab.slots[len(tab.slots):cap(tab.slots)] {
		if sl.t.Args != nil || sl.t.Pred != "" {
			t.Fatalf("slot %d past the %d live ones still holds %v", len(tab.slots)+i, len(tab.slots), sl.t)
		}
	}
}

// checkAggregatesAgainstDirectFold checks grouped avg/count/max over
// random readings against the same folds written out by hand, in
// insertion order (the order aggregate rules scan in, whatever the join
// heuristic would pick), so the float sums agree to the bit.
func checkAggregatesAgainstDirectFold(t *testing.T, seed int64) {
	t.Helper()
	src := `
.base reading/3.
avgt(R, avg<T>) :- reading(R, S, T).
cnt(count<S>) :- reading(R, S, T).
hot(R, max<T>) :- reading(R, S, T), T > 10.
`
	r := rand.New(rand.NewSource(seed))
	var facts []Tuple
	sum, n, hot := map[string]float64{}, map[string]int{}, map[string]float64{}
	for i := 0; i < 15; i++ {
		room, temp := fmt.Sprintf("room%d", r.Intn(3)), float64(r.Intn(300))/10
		facts = append(facts, NewTuple("reading",
			ast.Symbol(room), ast.Symbol(fmt.Sprintf("s%d", i)), ast.Float64(temp)))
		sum[room] += temp
		n[room]++
		if temp > 10 && temp > hot[room] {
			hot[room] = temp
		}
	}
	db := mustEval(t, src, facts)
	if !db.Contains(NewTuple("cnt", ast.Int64(int64(len(facts))))) {
		t.Errorf("cnt = %v, want %d", db.Tuples("cnt/1"), len(facts))
	}
	if got := db.Count("avgt/2"); got != len(n) {
		t.Errorf("%d avgt groups, want %d", got, len(n))
	}
	if got := db.Count("hot/2"); got != len(hot) {
		t.Errorf("%d hot groups, want %d", got, len(hot))
	}
	for room := range n {
		if want := NewTuple("avgt", ast.Symbol(room), ast.Float64(sum[room]/float64(n[room]))); !db.Contains(want) {
			t.Errorf("missing %v in %v", want, db.Tuples("avgt/2"))
		}
	}
	for room, max := range hot {
		if want := NewTuple("hot", ast.Symbol(room), ast.Float64(max)); !db.Contains(want) {
			t.Errorf("missing %v in %v", want, db.Tuples("hot/2"))
		}
	}
}

// TestIndexProbeOrder drives the shared index alone: a probe yields the
// slots filed under its key, ascending, and that survives the growth
// from the 16 buckets an empty index starts with through several
// rehashes.
func TestIndexProbeOrder(t *testing.T) {
	cols := []int{0, 2}
	ix := NewIndex(cols, 0)
	if !ix.On(cols) || ix.On([]int{0}) || ix.On([]int{0, 1}) {
		t.Fatalf("On(%v) compares position sets wrongly", cols)
	}
	const n = 500
	want := map[string][]int{}
	for slot := 0; slot < n; slot++ {
		args := []ast.Term{ast.Int64(int64(slot % 7)), ast.Int64(int64(slot)), ast.Symbol(fmt.Sprintf("s%d", slot%5))}
		ix.Add(args, slot)
		k := ArgKey(args, cols)
		want[k] = append(want[k], slot)
	}
	for k, slots := range want {
		var got []int
		it := ix.Probe([]byte(k))
		for si, ok := it.Next(); ok; si, ok = it.Next() {
			got = append(got, si)
		}
		if !slices.Equal(got, slots) {
			t.Fatalf("Probe(%q) = %v, want %v", k, got, slots)
		}
	}
	it := ix.Probe([]byte(ArgKey([]ast.Term{ast.Int64(9), ast.Int64(0), ast.Symbol("s0")}, cols)))
	if si, ok := it.Next(); ok {
		t.Fatalf("probe of an absent key yields slot %d", si)
	}
}

var slotSink int

// TestIndexAllocs pins what the index costs a centralized table. A build
// allocates the index (its positions inline), its bucket and entry arrays
// and the table's list of indexes — the same four at 16 and at 256 live
// tuples, because nothing is materialized per tuple. Finding a built
// two-position index (no signature is rendered to look it up) and
// probing it allocate nothing.
func TestIndexAllocs(t *testing.T) {
	cols := []int{0, 2}
	fill := func(n int) *table {
		tab := newTable()
		for i := 0; i < n; i++ {
			tab.insert(NewTuple("p", ast.Int64(int64(i%7)), ast.Int64(int64(i)), ast.Int64(int64(i%5))))
		}
		return tab
	}
	build := func(tab *table) float64 {
		return testing.AllocsPerRun(20, func() {
			tab.indexes = nil
			tab.index(cols)
		})
	}
	tab := fill(256)
	small, large := build(fill(16)), build(tab)
	if small != large || large > 4 {
		t.Errorf("building an index allocates %v objects over 16 tuples and %v over 256, want the same and <= 4", small, large)
	}
	key := []byte(ArgKey(tab.slots[40].t.Args, cols))
	if n := testing.AllocsPerRun(100, func() {
		it := tab.index(cols).Probe(key)
		for si, ok := it.Next(); ok; si, ok = it.Next() {
			slotSink += si
		}
	}); n != 0 {
		t.Errorf("index lookup + probe allocates %v times, want 0", n)
	}
}
