package window

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
)

func tup(v int64) eval.Tuple { return eval.NewTuple("s", ast.Int64(v)) }

func TestStampTotalOrder(t *testing.T) {
	a := Stamp{TS: 1, Node: 0, Seq: 0}
	b := Stamp{TS: 1, Node: 0, Seq: 1}
	c := Stamp{TS: 1, Node: 1, Seq: 0}
	d := Stamp{TS: 2, Node: 0, Seq: 0}
	if !a.Less(b) || !a.Less(c) || !a.Less(d) || !b.Less(c) || !c.Less(d) {
		t.Error("order violated")
	}
	if a.Less(a) {
		t.Error("irreflexivity violated")
	}
}

func TestQuickStampOrderAntisymmetric(t *testing.T) {
	f := func(ts1, ts2 int64, n1, n2 int, s1, s2 int64) bool {
		a := Stamp{TS: ts1, Node: n1, Seq: s1}
		b := Stamp{TS: ts2, Node: n2, Seq: s2}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInsertVisibleOrdering(t *testing.T) {
	s := NewStore()
	id := Stamp{TS: 10, Node: 1, Seq: 1}
	if !s.Insert(tup(1), id) {
		t.Fatal("insert failed")
	}
	if s.Insert(tup(1), id) {
		t.Error("duplicate insert should report false")
	}
	// Visible only to strictly later stamps.
	if got := s.Visible("s/1", Stamp{TS: 10, Node: 1, Seq: 1}, 0); len(got) != 0 {
		t.Error("visible at own stamp")
	}
	if got := s.Visible("s/1", Stamp{TS: 10, Node: 1, Seq: 2}, 0); len(got) != 1 {
		t.Error("not visible to later stamp")
	}
	if got := s.Visible("s/1", Stamp{TS: 9, Node: 9, Seq: 9}, 0); len(got) != 0 {
		t.Error("visible to earlier stamp")
	}
}

func TestWindowBound(t *testing.T) {
	s := NewStore()
	s.Insert(tup(1), Stamp{TS: 10, Node: 1, Seq: 1})
	// Window 50: visible until TS < 60.
	if got := s.Visible("s/1", Stamp{TS: 59, Node: 2}, 50); len(got) != 1 {
		t.Error("should be inside window")
	}
	if got := s.Visible("s/1", Stamp{TS: 60, Node: 2}, 50); len(got) != 0 {
		t.Error("should have slid out of window")
	}
	// Unbounded.
	if got := s.Visible("s/1", Stamp{TS: 1e9, Node: 2}, 0); len(got) != 1 {
		t.Error("unbounded window should keep it visible")
	}
}

func TestDeletionStampSemantics(t *testing.T) {
	s := NewStore()
	gen := Stamp{TS: 10, Node: 1, Seq: 1}
	s.Insert(tup(1), gen)
	del := Stamp{TS: 30, Node: 1, Seq: 2}
	s.MarkDeleted("s/1", gen, del)
	// An update between generation and deletion still sees the tuple
	// (Theorem 3: "do not have a deletion-timestamp of less than τ").
	if got := s.Visible("s/1", Stamp{TS: 20, Node: 2}, 0); len(got) != 1 {
		t.Error("pre-deletion update must still see the tuple")
	}
	// An update after the deletion does not.
	if got := s.Visible("s/1", Stamp{TS: 31, Node: 2}, 0); len(got) != 0 {
		t.Error("post-deletion update must not see the tuple")
	}
}

func TestDeletionTombstoneBeforeInsert(t *testing.T) {
	// Message reordering: the deletion marker can arrive first.
	s := NewStore()
	gen := Stamp{TS: 10, Node: 1, Seq: 1}
	del := Stamp{TS: 30, Node: 1, Seq: 2}
	s.MarkDeleted("s/1", gen, del)
	// The tombstone alone never matches.
	if got := s.Visible("s/1", Stamp{TS: 20, Node: 2}, 0); len(got) != 0 {
		t.Error("tombstone matched")
	}
	s.Insert(tup(1), gen)
	// Insert after tombstone: the deletion must stick. Note Insert keeps
	// the first entry for the stamp (the tombstone), preserving Del.
	if got := s.Visible("s/1", Stamp{TS: 40, Node: 2}, 0); len(got) != 0 {
		t.Error("deletion lost after reordered insert")
	}
}

func TestExpiry(t *testing.T) {
	s := NewStore()
	s.Insert(tup(1), Stamp{TS: 10, Node: 1, Seq: 1})
	s.Insert(tup(2), Stamp{TS: 100, Node: 1, Seq: 2})
	if n := s.Expire(150, 60); n != 1 {
		t.Errorf("expired %d, want 1", n)
	}
	if s.Count("s/1") != 1 {
		t.Errorf("count = %d", s.Count("s/1"))
	}
	// Retention 0 disables expiry.
	if n := s.Expire(1e9, 0); n != 0 {
		t.Error("retention 0 must not expire")
	}
}

func TestExpirePredScoped(t *testing.T) {
	s := NewStore()
	s.Insert(eval.NewTuple("a", ast.Int64(1)), Stamp{TS: 0, Node: 1, Seq: 1})
	s.Insert(eval.NewTuple("b", ast.Int64(1)), Stamp{TS: 0, Node: 1, Seq: 2})
	s.ExpirePred("a/1", 100, 50)
	if s.Count("a/1") != 0 || s.Count("b/1") != 1 {
		t.Errorf("a=%d b=%d", s.Count("a/1"), s.Count("b/1"))
	}
}

func TestAllSkipsDeleted(t *testing.T) {
	s := NewStore()
	g1 := Stamp{TS: 1, Node: 1, Seq: 1}
	g2 := Stamp{TS: 2, Node: 1, Seq: 2}
	s.Insert(tup(1), g1)
	s.Insert(tup(2), g2)
	s.MarkDeleted("s/1", g1, Stamp{TS: 3, Node: 1, Seq: 3})
	all := s.All("s/1")
	if len(all) != 1 || all[0].Tuple.Args[0].Int != 2 {
		t.Errorf("All = %v", all)
	}
}

func TestTotalCount(t *testing.T) {
	s := NewStore()
	s.Insert(eval.NewTuple("a", ast.Int64(1)), Stamp{TS: 0, Node: 1, Seq: 1})
	s.Insert(eval.NewTuple("b", ast.Int64(1)), Stamp{TS: 0, Node: 1, Seq: 2})
	if s.TotalCount() != 2 {
		t.Errorf("TotalCount = %d", s.TotalCount())
	}
}

func TestVisibleDeterministicOrder(t *testing.T) {
	s := NewStore()
	for i := int64(0); i < 10; i++ {
		s.Insert(tup(i), Stamp{TS: i, Node: 1, Seq: i})
	}
	tau := Stamp{TS: 100, Node: 2}
	a := s.Visible("s/1", tau, 0)
	b := s.Visible("s/1", tau, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("iteration order not deterministic")
		}
	}
}

// TestVisibleMatchEqualsFilteredVisible is the index path's property
// test: through seeded streams of inserts, deletion marks, tombstones
// for unknown IDs, ExpirePred and the compactions it triggers, on a
// table whose live size wanders across indexMinTable, a bound-column
// probe must return exactly the entries of the full visible scan whose
// values at those columns have that key — the same pointers in the same
// (insertion) order.
func TestVisibleMatchEqualsFilteredVisible(t *testing.T) {
	const pred = "p/2"
	colSets := [][]int{{0}, {1}, {0, 1}}
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		var ids []Stamp
		var now int64
		probed, scanned, compactions := false, false, 0
		orderLen := func() int {
			if tab := s.preds[pred]; tab != nil {
				return len(tab.order)
			}
			return 0
		}
		for step := 0; step < 600; step++ {
			now += int64(r.Intn(3))
			switch op := r.Intn(100); {
			case op < 70:
				id := Stamp{TS: now, Node: r.Intn(3), Seq: int64(step)}
				s.Insert(eval.NewTuple("p", ast.Int64(int64(r.Intn(4))), ast.Int64(int64(r.Intn(3)))), id)
				ids = append(ids, id)
			case op < 85:
				id := Stamp{TS: now, Node: 7, Seq: int64(step)} // unknown: tombstone
				if len(ids) > 0 && r.Intn(4) > 0 {
					id = ids[r.Intn(len(ids))]
				}
				s.MarkDeleted(pred, id, Stamp{TS: now + int64(r.Intn(4)), Node: 8, Seq: int64(step)})
			default:
				before := orderLen()
				s.ExpirePred(pred, now, []int64{10, 30, 80}[r.Intn(3)])
				if orderLen() < before {
					compactions++
				}
			}
			small := s.SmallTable(pred)
			scanned = scanned || small
			probed = probed || !small
			tau := Stamp{TS: now + int64(r.Intn(6)) - 2, Node: 9, Seq: int64(step)}
			w := []int64{0, 15, 60}[r.Intn(3)]
			cols := colSets[r.Intn(len(colSets))]
			key := eval.ArgKey([]ast.Term{ast.Int64(int64(r.Intn(4))), ast.Int64(int64(r.Intn(3)))}, cols)
			matching := func(in []*Entry) []*Entry {
				var out []*Entry
				for _, e := range in {
					if eval.ArgKey(e.Tuple.Args, cols) == key {
						out = append(out, e)
					}
				}
				return out
			}
			want := matching(s.Visible(pred, tau, w))
			raw := s.VisibleMatch(pred, tau, w, cols, []byte(key), nil)
			// Below the cutover the probe degrades to the scan and
			// callers re-match; above it, it returns exactly the bucket.
			got := matching(raw)
			if !small && len(raw) != len(got) {
				t.Fatalf("seed %d step %d cols %v: index probe returned %d entries, %d of them match the key",
					seed, step, cols, len(raw), len(got))
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d cols %v: %d entries, want %d", seed, step, cols, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d cols %v: entry %d is %v, want %v (order or identity differs)",
						seed, step, cols, i, got[i].Tuple, want[i].Tuple)
				}
			}
		}
		if !probed || !scanned || compactions == 0 {
			t.Errorf("seed %d did not straddle the cutover: probed=%v scanned=%v compactions=%d",
				seed, probed, scanned, compactions)
		}
	}
}
