package agg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datalog/ast"
)

func addAll(t *testing.T, s *State, vals ...int64) {
	t.Helper()
	for _, v := range vals {
		if err := s.Add(ast.Int64(v)); err != nil {
			t.Fatal(err)
		}
	}
}

func value(t *testing.T, s *State) ast.Term {
	t.Helper()
	v, err := s.Value()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestStateBasics(t *testing.T) {
	cases := []struct {
		fn   string
		vals []int64
		want ast.Term
	}{
		{"count", []int64{5, 5, 7}, ast.Int64(3)},
		{"sum", []int64{1, 2, 3}, ast.Int64(6)},
		{"min", []int64{4, 2, 9}, ast.Int64(2)},
		{"max", []int64{4, 2, 9}, ast.Int64(9)},
		{"avg", []int64{2, 4}, ast.Float64(3)},
	}
	for _, c := range cases {
		s, err := New(c.fn)
		if err != nil {
			t.Fatal(err)
		}
		addAll(t, s, c.vals...)
		if got := value(t, s); !got.Equal(c.want) {
			t.Errorf("%s(%v) = %v, want %v", c.fn, c.vals, got, c.want)
		}
	}
}

func TestUnknownAggregate(t *testing.T) {
	if _, err := New("median"); err == nil {
		t.Error("median should be rejected")
	}
}

func TestEmptyStateValueErrors(t *testing.T) {
	s, _ := New("min")
	if !s.Empty() {
		t.Error("fresh state should be empty")
	}
	if _, err := s.Value(); err == nil {
		t.Error("empty min should error")
	}
}

func TestSumMixedIntFloat(t *testing.T) {
	s, _ := New("sum")
	s.Add(ast.Int64(1))
	s.Add(ast.Float64(2.5))
	if got := value(t, s); got.Kind != ast.KindFloat || got.Float != 3.5 {
		t.Errorf("sum = %v", got)
	}
}

func TestSumNonNumericRejected(t *testing.T) {
	s, _ := New("sum")
	if err := s.Add(ast.Symbol("a")); err == nil {
		t.Error("non-numeric sum should error")
	}
}

func TestMinOverSymbolsStructural(t *testing.T) {
	s, _ := New("min")
	s.Add(ast.Symbol("b"))
	s.Add(ast.Symbol("a"))
	if got := value(t, s); got.Str != "a" {
		t.Errorf("min = %v", got)
	}
}

func TestMergeMismatchedFuncs(t *testing.T) {
	a, _ := New("min")
	a.Add(ast.Int64(1))
	b, _ := New("max")
	b.Add(ast.Int64(2))
	if err := a.Merge(b); err == nil {
		t.Error("merging max into min should error")
	}
}

func TestMergeEmptyIsNoOp(t *testing.T) {
	a, _ := New("sum")
	a.Add(ast.Int64(5))
	b, _ := New("sum")
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := value(t, a); got.Int != 5 {
		t.Errorf("sum = %v", got)
	}
	// Merging into empty adopts the other side.
	c, _ := New("sum")
	if err := c.Merge(a); err != nil {
		t.Fatal(err)
	}
	if got := value(t, c); got.Int != 5 {
		t.Errorf("adopted sum = %v", got)
	}
}

// The TAG decomposition property: splitting a value multiset across any
// partition of leaves and merging in any tree shape gives the same
// result as folding everything into one state.
func TestQuickMergeEqualsDirectFold(t *testing.T) {
	fns := []string{"count", "sum", "min", "max", "avg"}
	f := func(raw []int8, seed int64, fnIdx uint8) bool {
		if len(raw) == 0 {
			return true
		}
		fn := fns[int(fnIdx)%len(fns)]
		direct, _ := New(fn)
		for _, v := range raw {
			direct.Add(ast.Int64(int64(v)))
		}
		// Random partition into up to 4 parts, merged pairwise.
		r := rand.New(rand.NewSource(seed))
		parts := make([]*State, 4)
		for i := range parts {
			parts[i], _ = New(fn)
		}
		for _, v := range raw {
			parts[r.Intn(4)].Add(ast.Int64(int64(v)))
		}
		merged, _ := New(fn)
		for _, p := range parts {
			if err := merged.Merge(p); err != nil {
				return false
			}
		}
		dv, err1 := direct.Value()
		mv, err2 := merged.Value()
		if err1 != nil || err2 != nil {
			return false
		}
		return dv.Equal(mv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestGroupsMergeDeepCopies(t *testing.T) {
	aggs := []*ast.Aggregate{{Func: "sum"}}
	a := NewGroups()
	g, err := a.Get([]ast.Term{ast.Symbol("k")}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	g.States[0].Add(ast.Int64(1))

	b := NewGroups()
	if err := b.Merge(a); err != nil {
		t.Fatal(err)
	}
	// Mutating the source after the merge must not affect b.
	g.States[0].Add(ast.Int64(100))
	bg := b.ByKey[ast.Symbol("k").Key()+"|"]
	if bg == nil {
		t.Fatal("group not merged")
	}
	if got := value(t, bg.States[0]); got.Int != 1 {
		t.Errorf("merged state aliased source: %v", got)
	}
}

func TestGroupsMergeCombines(t *testing.T) {
	aggs := []*ast.Aggregate{{Func: "count"}}
	a := NewGroups()
	ga, _ := a.Get([]ast.Term{ast.Int64(1)}, aggs)
	ga.States[0].Add(ast.Int64(0))
	b := NewGroups()
	gb, _ := b.Get([]ast.Term{ast.Int64(1)}, aggs)
	gb.States[0].Add(ast.Int64(0))
	gb2, _ := b.Get([]ast.Term{ast.Int64(2)}, aggs)
	gb2.States[0].Add(ast.Int64(0))

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if len(a.ByKey) != 2 {
		t.Fatalf("groups = %d", len(a.ByKey))
	}
	if got := value(t, a.ByKey[ast.Int64(1).Key()+"|"].States[0]); got.Int != 2 {
		t.Errorf("count(1) = %v", got)
	}
}

func TestGroupsSize(t *testing.T) {
	g := NewGroups()
	if g.Size() <= 0 {
		t.Error("size must be positive")
	}
}
