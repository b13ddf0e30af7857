package window

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

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
	// The insertion behind it is news once, so a flood forwards it; it
	// stores nothing, and later copies are not news.
	if !s.Insert(tup(1), gen) {
		t.Error("first insert over a tombstone reported old")
	}
	if s.Insert(tup(1), gen) {
		t.Error("second insert over a tombstone reported new")
	}
	if s.MarkDeleted("s/1", gen, del) {
		t.Error("repeated deletion stamp reported new")
	}
	// Insert after tombstone: the deletion must stick. Note Insert keeps
	// the first entry for the stamp (the tombstone), preserving Del.
	if got := s.Visible("s/1", Stamp{TS: 40, Node: 2}, 0); len(got) != 0 {
		t.Error("deletion lost after reordered insert")
	}
	if s.Count("s/1") != 1 {
		t.Errorf("count = %d, want the tombstone alone", s.Count("s/1"))
	}
}

// TestNullaryReplicaIsVisible: a fact of a 0-ary predicate has no
// arguments (NewTuple("alarm") leaves Args nil), which is also what a
// tombstone looks like; only the tombstone is invisible.
func TestNullaryReplicaIsVisible(t *testing.T) {
	s := NewStore()
	alarm := eval.NewTuple("alarm")
	if alarm.Args != nil {
		t.Fatalf("fixture: NewTuple with no arguments has Args %v, want nil", alarm.Args)
	}
	gen, tau := Stamp{TS: 10, Node: 1, Seq: 1}, Stamp{TS: 20, Node: 2}
	if !s.Insert(alarm, gen) {
		t.Fatal("nullary insert refused")
	}
	if got := s.Visible("alarm/0", tau, 0); len(got) != 1 || got[0].ID != gen {
		t.Fatalf("Visible = %v, want the nullary replica", got)
	}
	if got := s.VisibleMatch("alarm/0", Latest, 0, nil, nil, nil); len(got) != 1 {
		t.Fatalf("live replicas = %v, want the nullary replica", got)
	}
	// A deletion that arrives first still wins, whatever the arity.
	early := Stamp{TS: 11, Node: 1, Seq: 2}
	s.MarkDeleted("alarm/0", early, Stamp{TS: 12, Node: 1, Seq: 3})
	if !s.Insert(alarm, early) {
		t.Error("first insert over a tombstone reported old")
	}
	if got := s.Visible("alarm/0", tau, 0); len(got) != 1 || got[0].ID != gen {
		t.Errorf("Visible = %v after a tombstone-first ID, want only %v", got, gen)
	}
	// Expiry reclaims both; the replica waits in order for compaction,
	// the tombstone does not.
	if n := s.ExpirePred("alarm/0", 100, 10); n != 2 || s.Count("alarm/0") != 0 {
		t.Errorf("expired %d, %d left; want 2 and 0", n, s.Count("alarm/0"))
	}
	checkTable(t, s.lookup("alarm/0"))
}

func TestExpiry(t *testing.T) {
	s := NewStore()
	s.Insert(tup(1), Stamp{TS: 10, Node: 1, Seq: 1})
	s.Insert(tup(2), Stamp{TS: 100, Node: 1, Seq: 2})
	if n := s.ExpirePred("s/1", 150, 60); n != 1 {
		t.Errorf("expired %d, want 1", n)
	}
	if s.Count("s/1") != 1 {
		t.Errorf("count = %d", s.Count("s/1"))
	}
	// Retention 0 disables expiry.
	if n := s.ExpirePred("s/1", 1e9, 0); n != 0 {
		t.Error("retention 0 must not expire")
	}
}

// TestExpiryIgnoresDeletionStamp pins Section IV-B's retention argument:
// every update that can still see a replica has τ.TS < ID.TS + w, so the
// generation stamp alone decides when it leaves — a deletion stamp, even
// one set on the replica's last visible tick, buys no extra time.
func TestExpiryIgnoresDeletionStamp(t *testing.T) {
	const w = 50
	s := NewStore()
	s.SetRetention("s/1", w)
	plain, marked := Stamp{TS: 10, Node: 1, Seq: 1}, Stamp{TS: 10, Node: 2, Seq: 1}
	s.Insert(tup(1), plain)
	s.Insert(tup(2), marked)
	s.MarkDeleted("s/1", marked, Stamp{TS: 10 + w - 1, Node: 2, Seq: 2})
	if n := s.ExpireDue(10 + w); n != 0 {
		t.Fatalf("expired %d entries one tick early", n)
	}
	if n := s.ExpireDue(10 + w + 1); n != 2 {
		t.Fatalf("expired %d entries, want the replica and its deleted twin together", n)
	}
	if s.Count("s/1") != 0 {
		t.Errorf("count = %d after both left", s.Count("s/1"))
	}
}

// TestLateTombstoneIsReclaimed: a deletion marker arriving after its
// replica expired leaves a tombstone that is already past retention. It
// must pull the store's next-due instant back so the next expiry call
// reclaims it instead of leaving it behind a not-due answer.
func TestLateTombstoneIsReclaimed(t *testing.T) {
	const w = 50
	s := NewStore()
	s.SetRetention("s/1", w)
	old, fresh := Stamp{TS: 10, Node: 1, Seq: 1}, Stamp{TS: 200, Node: 1, Seq: 2}
	s.Insert(tup(1), old)
	s.Insert(tup(2), fresh)
	if n := s.ExpireDue(210); n != 1 {
		t.Fatalf("expired %d, want the old replica", n)
	}
	if s.nextDue != fresh.TS+w+1 {
		t.Fatalf("nextDue = %d, want %d (the surviving replica)", s.nextDue, fresh.TS+w+1)
	}
	s.MarkDeleted("s/1", old, Stamp{TS: 205, Node: 1, Seq: 3})
	if s.Count("s/1") != 2 {
		t.Fatalf("count = %d, want the replica and the late tombstone", s.Count("s/1"))
	}
	if s.nextDue != old.TS+w+1 {
		t.Fatalf("nextDue = %d, want %d: the tombstone is already due", s.nextDue, old.TS+w+1)
	}
	if n := s.ExpireDue(211); n != 1 || s.Count("s/1") != 1 {
		t.Fatalf("next call reclaimed %d, count %d; want 1 and 1", n, s.Count("s/1"))
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

// TestLatestSkipsDeleted: at Latest under no window, exactly the replicas
// not marked deleted are visible.
func TestLatestSkipsDeleted(t *testing.T) {
	s := NewStore()
	g1 := Stamp{TS: 1, Node: 1, Seq: 1}
	g2 := Stamp{TS: 2, Node: 1, Seq: 2}
	s.Insert(tup(1), g1)
	s.Insert(tup(2), g2)
	s.MarkDeleted("s/1", g1, Stamp{TS: 3, Node: 1, Seq: 3})
	live := s.VisibleMatch("s/1", Latest, 0, nil, nil, nil)
	if len(live) != 1 || live[0].Args[0].Int != 2 {
		t.Errorf("live replicas = %v", live)
	}
}

// Replicas walks the tables in creation order, each in insertion order
// (not stamp order), deletion-marked replicas included; it skips
// expired replicas and payload-less tombstones.
func TestReplicasWalk(t *testing.T) {
	s := NewStore()
	u := func(v int64) eval.Tuple { return eval.NewTuple("u", ast.Int64(v)) }
	s.Insert(tup(3), Stamp{TS: 30, Node: 1, Seq: 1})
	s.MarkDeleted("t/1", Stamp{TS: 31, Node: 2, Seq: 1}, Stamp{TS: 32, Node: 2, Seq: 2})
	s.Insert(u(1), Stamp{TS: 10, Node: 1, Seq: 2})
	s.Insert(tup(1), Stamp{TS: 5, Node: 1, Seq: 3})
	gen := Stamp{TS: 50, Node: 1, Seq: 4}
	s.Insert(tup(2), gen)
	s.MarkDeleted("s/1", gen, Stamp{TS: 51, Node: 1, Seq: 5})
	s.MarkDeleted("s/1", Stamp{TS: 55, Node: 3, Seq: 1}, Stamp{TS: 56, Node: 3, Seq: 2})
	if n := s.ExpirePred("s/1", 60, 40); n != 1 {
		t.Fatalf("ExpirePred reclaimed %d, want s(1) alone", n)
	}
	var got []string
	s.Replicas(func(predKey string, e *Entry) {
		got = append(got, fmt.Sprintf("%s %v deleted=%t", predKey, e.Args, e.Deleted))
	})
	want := []string{"s/1 [3] deleted=false", "s/1 [2] deleted=true", "u/1 [1] deleted=false"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Replicas walked %q, want %q", got, want)
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

// refTable is the store's reference model: the pre-time-order design,
// reduced to what callers observe. Entries live in a map by ID that
// expirePred scans in full, and in one insertion-ordered slice; nothing
// is ordered by time, indexed, compacted or recycled.
type refTable struct {
	byID  map[Stamp]*Entry
	order []*Entry // replicas only, expired ones flagged gone
}

type refStore map[string]*refTable

func (m refStore) table(pred string) *refTable {
	if m[pred] == nil {
		m[pred] = &refTable{byID: map[Stamp]*Entry{}}
	}
	return m[pred]
}

func (m refStore) insert(pred string, args []ast.Term, id Stamp) bool {
	tab := m.table(pred)
	if e := tab.byID[id]; e != nil {
		if !e.tomb || e.inserted {
			return false
		}
		e.inserted = true
		return true
	}
	e := &Entry{Args: args, ID: id}
	tab.byID[id] = e
	tab.order = append(tab.order, e)
	return true
}

func (m refStore) markDeleted(pred string, id, del Stamp) bool {
	tab := m.table(pred)
	e := tab.byID[id]
	if e == nil {
		e = &Entry{ID: id, tomb: true} // tombstone: never in order
		tab.byID[id] = e
	}
	if !e.Deleted || del.Less(e.Del) {
		e.Deleted, e.Del = true, del
		return true
	}
	return false
}

// expirePred is the map scan ExpirePred used to be.
func (m refStore) expirePred(pred string, now, retention int64) int {
	tab := m[pred]
	if retention <= 0 || tab == nil {
		return 0
	}
	n := 0
	for id, e := range tab.byID {
		if now-e.ID.TS > retention {
			delete(tab.byID, id)
			e.gone = true
			n++
		}
	}
	return n
}

func (m refStore) count(pred string) int {
	if m[pred] == nil {
		return 0
	}
	return len(m[pred].byID)
}

// rows keeps the entries of pred, in insertion order, that are not
// expired and pass keep.
func (m refStore) rows(pred string, keep func(*Entry) bool) []row {
	var out []row
	if tab := m[pred]; tab != nil {
		for _, e := range tab.order {
			if !e.gone && keep(e) {
				out = append(out, rowOf(e))
			}
		}
	}
	return out
}

// row is an entry by value: slots are recycled, so the store and its
// model are compared as sequences of these, never as pointers.
type row struct {
	ID      Stamp
	Args    string
	Deleted bool
	Del     Stamp
}

func rowOf(e *Entry) row {
	return row{ID: e.ID, Args: eval.ArgKeyVals(e.Args), Deleted: e.Deleted, Del: e.Del}
}

func rowsOf(es []*Entry) []row {
	var out []row
	for _, e := range es {
		out = append(out, rowOf(e))
	}
	return out
}

// checkTable verifies the structure ExpirePred relies on: the
// generation-time list holds exactly the byID entries in non-decreasing
// TS order with consistent back links, and gone counts the flagged
// entries of order and stays at most half of it.
func checkTable(t *testing.T, tab *predTable) {
	t.Helper()
	n := 0
	var prev *Entry
	for e := tab.oldest; e != nil; prev, e = e, e.newer {
		if e.older != prev {
			t.Fatalf("entry %v: older link does not point at its predecessor", e.ID)
		}
		if prev != nil && prev.ID.TS > e.ID.TS {
			t.Fatalf("time list out of order: %v before %v", prev.ID, e.ID)
		}
		if tab.byID.get(e.ID) != e {
			t.Fatalf("entry %v is on the time list but not in byID", e.ID)
		}
		n++
	}
	if prev != tab.newest || n != tab.byID.n {
		t.Fatalf("time list has %d entries ending at %v; byID has %d, newest is %v", n, prev, tab.byID.n, tab.newest)
	}
	gone := 0
	for _, e := range tab.order {
		if e.gone {
			gone++
		}
	}
	if gone != tab.gone || gone > len(tab.order)/2 {
		t.Fatalf("gone = %d, counted %d of %d in order", tab.gone, gone, len(tab.order))
	}
}

// checkArena verifies what Arena.get relies on: free slots are zeroed.
func checkArena(t *testing.T, a *Arena) {
	t.Helper()
	for e := a.free; e != nil; e = e.newer {
		if e.Args != nil || e.older != nil || e.gone || e.tomb || e.Deleted || e.ID != (Stamp{}) {
			t.Fatalf("free slot not zeroed: %+v", *e)
		}
	}
}

// checkSlotsConserved: every slot the stores were ever handed (used) is
// either held by one of them — in byID or in order — or on the free
// list, never both, so no expiry or compaction leaks a slot.
func checkSlotsConserved(t *testing.T, a *Arena, used map[*Entry]bool, stores ...*Store) {
	t.Helper()
	held := map[*Entry]bool{}
	for _, s := range stores {
		for _, p := range s.preds {
			tab := p.tab
			for _, e := range tab.order {
				held[e] = true
			}
			for _, e := range tab.byID.slots {
				if e != nil {
					held[e] = true
				}
			}
		}
	}
	free := 0
	for e := a.free; e != nil; e = e.newer {
		if held[e] {
			t.Fatalf("slot %p is on the free list and still held by a store", e)
		}
		free++
	}
	if len(held)+free != len(used) {
		t.Fatalf("%d slots handed out, %d held and %d free", len(used), len(held), free)
	}
}

// TestVisibleMatchEqualsFilteredVisible is the store's property test.
// Seeded streams drive two stores that share one Arena, each beside its
// own map-scan reference model: generation stamps out of order within a
// skew bound and duplicated, re-inserted IDs, deletions before their
// insertions and of IDs that already expired, ExpirePred at wandering
// instants under random retentions (0 included) and ExpireDue under the
// declared one, on tables whose live size wanders across indexMinTable
// and through compaction and slot recycling — slots one store frees are
// reused by the other's inserts. After every step the return value,
// Count/TotalCount, and Visible/VisibleMatch/All as value sequences must
// equal the model's; a bound-column probe must return exactly the
// entries of the full visible scan whose values at those columns have
// that key — the same pointers in the same (insertion) order; and the
// entries one store's probe returned must be untouched by inserts into
// the other.
func TestVisibleMatchEqualsFilteredVisible(t *testing.T) {
	preds := []string{"p/2", "q/2"}
	colSets := [][]int{{0}, {1}, {0, 1}}
	const skew = 4
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		arena := NewArena()
		stores := [2]*Store{arena.NewStore(), arena.NewStore()}
		models := [2]refStore{{}, {}}
		// filed[k] holds every slot store k has filed an entry in, used
		// every slot either has.
		filed := [2]map[*Entry]bool{{}, {}}
		used := map[*Entry]bool{}
		// p is declared (ExpireDue reclaims it), q only ever expires
		// through explicit ExpirePred calls.
		declared := []int64{20, 45}[seed%2]
		for _, s := range stores {
			s.SetRetention("p/2", declared)
		}
		var ids []Stamp
		var now int64
		probed, scanned, compactions, recycled, crossReused, dueHits, lateTombs, shielded := false, false, 0, 0, 0, 0, 0, 0
		insert := func(k int, pred string, id Stamp, args []ast.Term, step int) {
			s, m := stores[k], models[k]
			hadFree := arena.free != nil
			got, want := s.Insert(eval.Tuple{Pred: pred, Args: args}, id), m.insert(pred, args, id)
			if got != want {
				t.Fatalf("seed %d step %d: store %d Insert(%v) = %v, model %v", seed, step, k, id, got, want)
			}
			if got {
				e := s.lookup(pred).byID.get(id)
				if hadFree {
					recycled++
				}
				if filed[1-k][e] {
					crossReused++
				}
				filed[k][e], used[e] = true, true
			}
		}
		for step := 0; step < 900; step++ {
			now += int64(r.Intn(3))
			k := r.Intn(2)
			s, m := stores[k], models[k]
			pred := preds[r.Intn(len(preds))]
			tab := s.lookup(pred)
			switch op := r.Intn(100); {
			case op < 65:
				id := Stamp{TS: now - int64(r.Intn(skew+1)), Node: r.Intn(3), Seq: int64(r.Intn(4))}
				if len(ids) > 0 && r.Intn(8) == 0 {
					id = ids[r.Intn(len(ids))] // seen before: duplicate, tombstoned or expired
				}
				insert(k, pred, id, []ast.Term{ast.Int64(int64(r.Intn(4))), ast.Int64(int64(r.Intn(3)))}, step)
				ids = append(ids, id)
			case op < 82:
				id := Stamp{TS: now - int64(r.Intn(skew+1)), Node: 7, Seq: int64(step)} // unknown: tombstone
				if len(ids) > 0 && r.Intn(4) > 0 {
					id = ids[r.Intn(len(ids))]
				}
				if m.count(pred) > 0 && m[pred].byID[id] == nil && now-id.TS > declared {
					lateTombs++
				}
				del := Stamp{TS: now + int64(r.Intn(4)), Node: 8, Seq: int64(step)}
				if got, want := s.MarkDeleted(pred, id, del), m.markDeleted(pred, id, del); got != want {
					t.Fatalf("seed %d step %d: store %d MarkDeleted(%v, %v) = %v, model %v", seed, step, k, id, del, got, want)
				}
				e := s.lookup(pred).byID.get(id)
				filed[k][e], used[e] = true, true
				ids = append(ids, id)
			case op < 91:
				before := 0
				if tab != nil {
					before = len(tab.order)
				}
				at, retention := now+int64(r.Intn(10))-3, []int64{0, 10, 30, 80}[r.Intn(4)]
				got, want := s.ExpirePred(pred, at, retention), m.expirePred(pred, at, retention)
				if got != want {
					t.Fatalf("seed %d step %d: store %d ExpirePred(%s, %d, %d) = %d, model %d", seed, step, k, pred, at, retention, got, want)
				}
				if tab != nil && len(tab.order) < before {
					compactions++
				}
			default:
				at := now + int64(r.Intn(10)) - 3
				pass := at >= s.nextDue
				got, want := s.ExpireDue(at), m.expirePred("p/2", at, declared)
				if got != want {
					t.Fatalf("seed %d step %d: store %d ExpireDue(%d) = %d, model %d", seed, step, k, at, got, want)
				}
				if got > 0 {
					dueHits++
				}
				// Explicit ExpirePred calls leave nextDue a lower bound; a
				// pass makes it exact again.
				if want := s.lookup("p/2").nextDue(); pass && s.nextDue != want {
					t.Fatalf("seed %d step %d: store %d nextDue = %d after a pass, want %d", seed, step, k, s.nextDue, want)
				}
			}
			for k, s := range stores {
				m, total := models[k], 0
				for _, p := range preds {
					if s.Count(p) != m.count(p) {
						t.Fatalf("seed %d step %d: store %d Count(%s) = %d, model %d", seed, step, k, p, s.Count(p), m.count(p))
					}
					total += m.count(p)
					if tab := s.lookup(p); tab != nil {
						checkTable(t, tab)
					}
				}
				if s.TotalCount() != total {
					t.Fatalf("seed %d step %d: store %d TotalCount = %d, model %d", seed, step, k, s.TotalCount(), total)
				}
				if s.nextDue > s.lookup("p/2").nextDue() {
					t.Fatalf("seed %d step %d: store %d nextDue = %d is past the oldest declared entry's %d",
						seed, step, k, s.nextDue, s.lookup("p/2").nextDue())
				}
			}
			checkArena(t, arena)
			checkSlotsConserved(t, arena, used, stores[:]...)

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
					if eval.ArgKey(e.Args, cols) == key {
						out = append(out, e)
					}
				}
				return out
			}
			visible := s.Visible(pred, tau, w)
			want := matching(visible)
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
						seed, step, cols, i, got[i].Args, want[i].Args)
				}
			}
			if got, want := rowsOf(visible), m.rows(pred, func(e *Entry) bool { return e.VisibleAt(tau, w) }); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: Visible(%s, %v, %d) =\n%v\nmodel\n%v", seed, step, pred, tau, w, got, want)
			}
			if got, want := rowsOf(s.VisibleMatch(pred, Latest, 0, nil, nil, nil)), m.rows(pred, func(e *Entry) bool { return !e.Deleted }); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: live(%s) =\n%v\nmodel\n%v", seed, step, pred, got, want)
			}

			// Inserts into the other store draw on the free list the two
			// share; they must leave this store's probe result alone.
			before := rowsOf(raw)
			for i := r.Intn(3); i > 0; i-- {
				if arena.free != nil && len(raw) > 0 {
					shielded++
				}
				id := Stamp{TS: now - int64(r.Intn(skew+1)), Node: 5, Seq: int64(step*4 + i)}
				insert(1-k, preds[r.Intn(len(preds))], id, []ast.Term{ast.Int64(int64(r.Intn(4))), ast.Int64(int64(r.Intn(3)))}, step)
			}
			if after := rowsOf(raw); !reflect.DeepEqual(after, before) {
				t.Fatalf("seed %d step %d: inserts into store %d rewrote store %d's probe result:\n%v\nwas\n%v", seed, step, 1-k, k, after, before)
			}
		}
		if !probed || !scanned || compactions == 0 || recycled == 0 || crossReused == 0 || dueHits == 0 || lateTombs == 0 || shielded == 0 {
			t.Errorf("seed %d left a path untested: probed=%v scanned=%v compactions=%d recycled=%d crossReused=%d dueHits=%d lateTombs=%d shielded=%d",
				seed, probed, scanned, compactions, recycled, crossReused, dueHits, lateTombs, shielded)
		}
	}
}

// TestStampTableMatchesMap drives the stamp table against a map through
// seeded put/get/del phases: growth from empty, a drain that halves the
// slot array down to its floor, and regrowth. Stamps from a narrow range
// make probe runs long enough to wrap past the end of the slot array,
// which the test requires it saw — as well as a shrink and a regrowth.
func TestStampTableMatchesMap(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		var tab stampTable
		ref := map[Stamp]*Entry{}
		wrapped, shrunk, regrown := 0, 0, 0
		randStamp := func() Stamp {
			return Stamp{TS: int64(r.Intn(64)), Node: r.Intn(4), Seq: int64(r.Intn(16))}
		}
		check := func(phase string, step int) {
			if tab.n != len(ref) {
				t.Fatalf("seed %d %s step %d: n = %d, map has %d", seed, phase, step, tab.n, len(ref))
			}
			if tab.slots == nil {
				return
			}
			size := len(tab.slots)
			if size < minStampSlots || size&(size-1) != 0 || 4*tab.n > 3*size {
				t.Fatalf("seed %d %s step %d: %d entries in %d slots", seed, phase, step, tab.n, size)
			}
			for i, e := range tab.slots {
				if e == nil {
					continue
				}
				if ref[e.ID] != e {
					t.Fatalf("seed %d %s step %d: slot %d holds %v, which the map does not", seed, phase, step, i, e.ID)
				}
				if int(stampHash(e.ID))&(size-1) > i {
					wrapped++
				}
			}
			for id, e := range ref {
				if got := tab.get(id); got != e {
					t.Fatalf("seed %d %s step %d: get(%v) = %p, want %p", seed, phase, step, id, got, e)
				}
			}
			for i := 0; i < 8; i++ {
				id := randStamp()
				if got := tab.get(id); got != ref[id] {
					t.Fatalf("seed %d %s step %d: get(%v) = %p, map has %p", seed, phase, step, id, got, ref[id])
				}
			}
		}
		grow := func(phase string, n int) {
			for step := 0; len(ref) < n; step++ {
				before := len(tab.slots)
				if id := randStamp(); ref[id] == nil && tab.get(id) == nil {
					e := &Entry{ID: id}
					tab.put(e)
					ref[id] = e
				}
				if shrunk > 0 && len(tab.slots) > before {
					regrown++
				}
				if r.Intn(4) == 0 { // deletions amid growth
					for id := range ref {
						tab.del(id)
						delete(ref, id)
						break
					}
				}
				check(phase, step)
			}
		}
		drain := func(phase string, n int) {
			step := 0
			for id := range ref {
				if len(ref) <= n {
					break
				}
				before := len(tab.slots)
				tab.del(id)
				delete(ref, id)
				if len(tab.slots) < before {
					shrunk++
				}
				check(phase, step)
				step++
			}
		}
		grow("grow", 600+r.Intn(600))
		drain("drain", r.Intn(3))
		if len(tab.slots) > 2*minStampSlots {
			t.Fatalf("seed %d: %d entries left in %d slots after the drain", seed, tab.n, len(tab.slots))
		}
		grow("regrow", 200+r.Intn(200))
		drain("empty", 0)
		if wrapped == 0 || shrunk == 0 || regrown == 0 {
			t.Errorf("seed %d left a path untested: wrapped=%d shrunk=%d regrown=%d", seed, wrapped, shrunk, regrown)
		}
	}
}

// TestBurstReleasesStampSlots: a table that held a burst gives its stamp
// slots back once the burst expires.
func TestBurstReleasesStampSlots(t *testing.T) {
	const burst, retention = 10000, 50
	s := NewStore()
	s.SetRetention("s/1", retention)
	for i := int64(0); i < burst; i++ {
		s.Insert(tup(i), Stamp{TS: i / 100, Node: 1, Seq: i})
	}
	tab := s.lookup("s/1")
	peak := len(tab.byID.slots)
	if n := s.ExpireDue(burst); n != burst {
		t.Fatalf("expired %d of %d", n, burst)
	}
	if got := len(tab.byID.slots); s.Count("s/1") != 0 || got > 16 {
		t.Errorf("after the burst: Count = %d, %d stamp slots (peak %d); want 0 and <= 16", s.Count("s/1"), got, peak)
	}
	checkTable(t, tab)
	checkArena(t, s.arena)
}

// TestEntrySize: the two time-list links are paid for inside the entry —
// it shed the predicate string and identity key of the eval.Tuple it
// used to embed (112 B) — and the arena's chunks are most of a windowed
// run's heap.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got > 96 {
		t.Errorf("sizeof(Entry) = %d B, want <= 96", got)
	}
}

// TestExpirySteadyStateAllocs pins the two costs the time-ordered store
// exists for: asking a store with nothing due allocates nothing, and so
// does one insert plus the expiry of one entry on a warmed table — the
// reclaimed slot is the next insert's entry.
func TestExpirySteadyStateAllocs(t *testing.T) {
	const live, retention = 26, 26
	s := NewStore()
	s.SetRetention("s/1", retention)
	tuple := tup(1)
	var ts int64
	cycle := func() {
		ts++
		s.Insert(tuple, Stamp{TS: ts, Node: 1, Seq: ts})
		s.ExpireDue(ts)
	}
	for i := 0; i < 8*live; i++ {
		cycle()
	}
	if got := s.Count("s/1"); got != live+1 {
		t.Fatalf("warmed table holds %d entries, want %d", got, live+1)
	}
	if n := testing.AllocsPerRun(100, func() {
		if s.ExpireDue(ts) != 0 || s.ExpirePred("s/1", ts, retention) != 0 {
			t.Fatal("nothing was due")
		}
	}); n != 0 {
		t.Errorf("a not-due expiry allocates %v times, want 0", n)
	}
	before := s.Count("s/1")
	if n := testing.AllocsPerRun(4*live, cycle); n != 0 {
		t.Errorf("insert + expire at steady state allocates %v times per cycle, want 0", n)
	}
	if s.Count("s/1") != before {
		t.Errorf("steady state drifted: %d entries, was %d", s.Count("s/1"), before)
	}
}

// TestIndexedStoreAllocs pins what the shared index costs a replica
// table: nothing per replica. A build allocates the index, its copy of
// the positions, its three arrays and the table's list of indexes — the
// same handful at 16 and at 256 live replicas. A two-position probe
// allocates nothing, and neither does an insert into a table with two
// indexes beyond the amortized growth of the arena and the arrays it
// appends to, which AllocsPerRun's integer average rounds away; one key
// string per index per insert would read 2.
func TestIndexedStoreAllocs(t *testing.T) {
	cols := []int{0, 1}
	pair := func(i int) eval.Tuple {
		return eval.NewTuple("p", ast.Int64(int64(i%7)), ast.Int64(int64(i%5)))
	}
	fill := func(n int) *Store {
		s := NewStore()
		for i := 0; i < n; i++ {
			s.Insert(pair(i), Stamp{TS: int64(i), Node: 1, Seq: int64(i)})
		}
		return s
	}
	build := func(s *Store) float64 {
		tab := s.lookup("p/2")
		return testing.AllocsPerRun(20, func() {
			tab.indexes = nil
			tab.index(cols)
		})
	}
	s := fill(256)
	small, large := build(fill(16)), build(s)
	if small != large || large > 6 {
		t.Errorf("building an index allocates %v objects over 16 replicas and %v over 256, want the same and <= 6", small, large)
	}
	tau := Stamp{TS: 1 << 20, Node: 2}
	key := []byte(eval.ArgKey(pair(3).Args, cols))
	var out []*Entry
	out = s.VisibleMatch("p/2", tau, 0, cols, key, out[:0])
	if len(out) == 0 || len(out) == 256 {
		t.Fatalf("fixture: the probe returned %d of 256 replicas", len(out))
	}
	if n := testing.AllocsPerRun(100, func() {
		out = s.VisibleMatch("p/2", tau, 0, cols, key, out[:0])
	}); n != 0 {
		t.Errorf("a two-position probe allocates %v times, want 0", n)
	}
	s.VisibleMatch("p/2", tau, 0, []int{0}, key, out[:0]) // a second index to maintain
	tuples := make([]eval.Tuple, 101)                     // AllocsPerRun warms up with one extra call
	for i := range tuples {
		tuples[i] = pair(i)
	}
	next := 0
	if n := testing.AllocsPerRun(100, func() {
		s.Insert(tuples[next], Stamp{TS: int64(1000 + next), Node: 1, Seq: int64(next)})
		next++
	}); n != 0 {
		t.Errorf("an insert into an indexed table allocates %v times, want 0", n)
	}
	if got := len(s.lookup("p/2").indexes); got != 2 {
		t.Errorf("table has %d indexes, want 2", got)
	}
}

// BenchmarkStoreSlidingWindow times the window layer at the table sizes
// the engine workloads reach (8 and 26 live replicas per node) and a
// large one: the expiry check that finds nothing due, through the
// store's next-due instant (ExpireDue, what the node runtime calls) and
// through the table (ExpirePred), and one slide of the window — an
// insert plus the expiry of the entry it pushes out.
func BenchmarkStoreSlidingWindow(b *testing.B) {
	for _, live := range []int{8, 26, 256} {
		retention := int64(live)
		tuple := tup(1)
		warm := func() (*Store, int64) {
			s := NewStore()
			s.SetRetention("s/1", retention)
			var ts int64
			for ; ts < 4*retention; ts++ {
				s.Insert(tuple, Stamp{TS: ts, Node: 1, Seq: ts})
				s.ExpireDue(ts)
			}
			return s, ts - 1
		}
		b.Run(fmt.Sprintf("live=%d/notdue", live), func(b *testing.B) {
			s, ts := warm()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += s.ExpireDue(ts)
			}
		})
		b.Run(fmt.Sprintf("live=%d/notdue-pred", live), func(b *testing.B) {
			s, ts := warm()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += s.ExpirePred("s/1", ts, retention)
			}
		})
		b.Run(fmt.Sprintf("live=%d/slide", live), func(b *testing.B) {
			s, ts := warm()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts++
				s.Insert(tuple, Stamp{TS: ts, Node: 1, Seq: ts})
				benchSink += s.ExpireDue(ts)
			}
		})
	}
}

var benchSink int
