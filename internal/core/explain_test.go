package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/obs"
	"repro/internal/obs/provenance"
	"repro/internal/topo"
)

// buildProvGrid is buildGrid with the observability layer attached and
// provenance capture on.
func buildProvGrid(t testing.TB, m int, src string, cfg Config, simCfg nsim.Config) (*Engine, *nsim.Network) {
	t.Helper()
	nw := topo.Grid(m, simCfg)
	e, err := Deploy(nw, mustProg(t, src), cfg, obs.NewRegistry(), nil, true)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return e, nw
}

func mustInject(t testing.TB, e *Engine, at nsim.Time, node nsim.NodeID, tup eval.Tuple) {
	t.Helper()
	if err := e.InjectAt(at, node, tup); err != nil {
		t.Fatal(err)
	}
}

func TestExplainTwoStreamJoin(t *testing.T) {
	e, nw := buildProvGrid(t, 5, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 7})
	mustInject(t, e, 10, 3, eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)))
	mustInject(t, e, 20, 9, eval.NewTuple("rb", ast.Int64(2), ast.Int64(3)))
	nw.Run(0)

	tree, err := e.Explain("out", ast.Int64(1), ast.Int64(3))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Key != "out/2|i1,i3" || len(tree.Derivs) != 1 {
		t.Fatalf("tree = %+v", tree)
	}
	d := tree.Derivs[0]
	if len(d.Body) != 2 {
		t.Fatalf("join derivation should have two body tuples: %+v", d)
	}
	bodyKeys := map[string]bool{}
	for _, b := range d.Body {
		if !b.Base {
			t.Fatalf("join body should be base leaves: %+v", b)
		}
		bodyKeys[b.Key] = true
	}
	if !bodyKeys["ra/2|i1,i2"] || !bodyKeys["rb/2|i2,i3"] {
		t.Fatalf("body keys = %v", bodyKeys)
	}
	if d.SettledAt < d.SentAt || d.SettledAt <= 0 {
		t.Fatalf("timestamps: sent %d settled %d", d.SentAt, d.SettledAt)
	}

	bl, err := e.Blame("out", ast.Int64(1), ast.Int64(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(bl.Steps) == 0 || bl.Steps[0].Key != "out/2|i1,i3" || bl.Total != bl.Steps[0].SettledAt {
		t.Fatalf("blame = %+v", bl)
	}
	// The predicate/arity spelling is also accepted.
	if _, err := e.Explain("out/2", ast.Int64(1), ast.Int64(3)); err != nil {
		t.Fatalf("arity-qualified query: %v", err)
	}
}

func TestExplainBaseTuple(t *testing.T) {
	e, nw := buildProvGrid(t, 4, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 7})
	mustInject(t, e, 10, 2, eval.NewTuple("ra", ast.Int64(4), ast.Int64(5)))
	nw.Run(0)
	tree, err := e.Explain("ra", ast.Int64(4), ast.Int64(5))
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Base || len(tree.Derivs) != 0 {
		t.Fatalf("base tuple should explain as a [base] leaf: %+v", tree)
	}
	if _, err := e.Explain("ra", ast.Int64(9), ast.Int64(9)); err == nil {
		t.Fatal("a base tuple that was never injected should not explain")
	}
	if _, err := e.Blame("ra", ast.Int64(4), ast.Int64(5)); err == nil {
		t.Fatal("Blame on a base predicate should error")
	}
}

const negFlipSrc = `
.base a/2.
.base blk/2.
d(X, Y) :- a(X, Y), NOT blk(X, Y).
`

// The satellite regression: a tuple that was derived and then deleted
// by a negation flip must explain as not-found, because the
// set-of-derivations entry holds its provenance and goes with it.
func TestExplainDeletedByNegationFlip(t *testing.T) {
	e, nw := buildProvGrid(t, 4, negFlipSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 3})
	mustInject(t, e, 10, 1, eval.NewTuple("a", ast.Int64(1), ast.Int64(2)))
	nw.Run(0)
	if _, err := e.Explain("d", ast.Int64(1), ast.Int64(2)); err != nil {
		t.Fatalf("d(1,2) should be explainable while unblocked: %v", err)
	}

	// The blocker arrives: NOT blk(1,2) flips and d(1,2) is deleted.
	mustInject(t, e, nw.Now()+50, 5, eval.NewTuple("blk", ast.Int64(1), ast.Int64(2)))
	nw.Run(0)
	if len(e.Derived("d/2")) != 0 {
		t.Fatal("the negation flip should have deleted d(1,2)")
	}
	_, err := e.Explain("d", ast.Int64(1), ast.Int64(2))
	if err == nil {
		t.Fatal("a deleted tuple must not explain")
	}
	if !strings.Contains(err.Error(), "no live derivation") {
		t.Fatalf("error should say there is no live derivation: %v", err)
	}
	if n := e.provLive.Load(); n != 0 {
		t.Fatalf("core.prov.live = %d after the flip, want 0", n)
	}
	// History is counted even though liveness is gone.
	if e.provCaptured.Load() == 0 {
		t.Fatal("captured count should survive the deletion")
	}
}

func TestExplainQueryValidation(t *testing.T) {
	e, nw := buildProvGrid(t, 4, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 7})
	nw.Run(0)
	if _, err := e.Explain("nosuch", ast.Int64(1)); !errors.Is(err, ErrUnknownPredicate) {
		t.Fatalf("unknown predicate: err = %v, want ErrUnknownPredicate", err)
	}
	if _, err := e.Blame("out", ast.Int64(1)); !errors.Is(err, ErrArity) {
		t.Fatalf("wrong arity: err = %v, want ErrArity", err)
	}
	if _, err := e.Explain("out", ast.Var("X"), ast.Int64(3)); !errors.Is(err, ErrNotGround) {
		t.Fatalf("non-ground arguments: err = %v, want ErrNotGround", err)
	}
	plain, _ := buildGrid(t, 4, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 7})
	if _, err := plain.Explain("out", ast.Int64(1), ast.Int64(3)); err != ErrNoProvenance {
		t.Fatalf("unattached engine should return ErrNoProvenance, got %v", err)
	}
	if _, err := plain.Blame("out", ast.Int64(1), ast.Int64(3)); err != ErrNoProvenance {
		t.Fatalf("unattached engine Blame should return ErrNoProvenance, got %v", err)
	}
}

// Replay wipes and rebuilds all distributed state; provenance must be
// wiped with it (stale pre-replay records would claim derivations the
// rebuilt run never performed) and repopulated by the replayed run.
func TestExplainSurvivesReplay(t *testing.T) {
	e, nw := buildProvGrid(t, 4, joinSrc,
		Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 7})
	mustInject(t, e, 10, 3, eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)))
	mustInject(t, e, 20, 9, eval.NewTuple("rb", ast.Int64(2), ast.Int64(3)))
	nw.Run(0)
	before := e.provCaptured.Load()
	if before == 0 {
		t.Fatal("no provenance captured before replay")
	}

	e.Replay()
	nw.Run(0)
	tree, err := e.Explain("out", ast.Int64(1), ast.Int64(3))
	if err != nil {
		t.Fatalf("replayed derivation should be explainable: %v", err)
	}
	if len(tree.Derivs) != 1 || len(tree.Derivs[0].Body) != 2 {
		t.Fatalf("rebuilt tree = %+v", tree)
	}
}

// provCounts fails unless core.prov.live and core.prov.captured read
// live and captured.
func provCounts(t *testing.T, e *Engine, live, captured int64) {
	t.Helper()
	if l, c := e.provLive.Load(), e.provCaptured.Load(); l != live || c != captured {
		t.Fatalf("core.prov.live = %d, core.prov.captured = %d; want %d, %d", l, c, live, captured)
	}
}

// heldRecords is Σ DerivationEntries over the nodes: the
// set-of-derivations entries the records are the values of.
func heldRecords(e *Engine) int64 {
	var n int64
	for _, node := range e.nw.Nodes() {
		n += int64(e.DerivationEntries(node.ID))
	}
	return n
}

const twoRuleSrc = `
.base a/1.
.base b/1.
d(X) :- a(X).
d(X) :- b(X).
`

// core.prov.live counts (head, derivation) records, not tuples: a tuple
// stays live, and explainable, until its last derivation goes; the
// lifetime count core.prov.captured survives the removals.
func TestProvLiveCountsDerivationRecords(t *testing.T) {
	e, nw := buildProvGrid(t, 4, twoRuleSrc, Config{}, nsim.Config{Seed: 5})
	a, b := eval.NewTuple("a", ast.Int64(1)), eval.NewTuple("b", ast.Int64(1))
	mustInject(t, e, 10, 1, a)
	mustInject(t, e, 20, 6, b)
	nw.Run(0)
	provCounts(t, e, 2, 2)
	tree, err := e.Explain("d", ast.Int64(1))
	if err != nil || len(tree.Derivs) != 2 {
		t.Fatalf("d(1) should explain with two derivations: %v %+v", err, tree)
	}

	if err := e.InjectDeleteAt(nw.Now()+1, 1, a); err != nil {
		t.Fatal(err)
	}
	nw.Run(0)
	provCounts(t, e, 1, 2)
	if tree, err := e.Explain("d", ast.Int64(1)); err != nil || len(tree.Derivs) != 1 || tree.Derivs[0].Body[0].Key != b.Key() {
		t.Fatalf("d(1) should explain through b(1) alone: %v %+v", err, tree)
	}

	if err := e.InjectDeleteAt(nw.Now()+1, 6, b); err != nil {
		t.Fatal(err)
	}
	nw.Run(0)
	provCounts(t, e, 0, 2)
	if _, err := e.Explain("d", ast.Int64(1)); err == nil || !strings.Contains(err.Error(), "no live derivation") {
		t.Fatalf("d(1) has no derivation left, Explain said %v", err)
	}
}

// Delete/re-insert churn leaves exactly the live derivations' records:
// a 32-link chain has 528 reach pairs with one derivation each, and
// after 400 cycles of deleting and re-inserting its last link (32 pairs
// retracted and re-derived each time) there are 528 records again, one
// per set-of-derivations entry.
func TestProvChurnKeepsOnlyLiveRecords(t *testing.T) {
	const src = `
.base link/2.
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
`
	e, nw := buildProvGrid(t, 5, src, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 3})
	link := func(i int) eval.Tuple {
		return eval.NewTuple("link", ast.Symbol(fmt.Sprintf("c%d", i)), ast.Symbol(fmt.Sprintf("c%d", i+1)))
	}
	for i := 0; i < 32; i++ {
		mustInject(t, e, nsim.Time(10+i), nsim.NodeID(i%25), link(i))
	}
	nw.Run(0)
	const pairs = 32 * 33 / 2
	held := func() {
		t.Helper()
		if n := len(e.Derived("reach/2")); n != pairs {
			t.Fatalf("%d reach pairs, want %d", n, pairs)
		}
		if l, h := e.provLive.Load(), heldRecords(e); l != pairs || h != pairs {
			t.Fatalf("core.prov.live = %d over %d held derivations, want %d of each", l, h, pairs)
		}
	}
	held()
	last := link(31)
	const cycles = 400
	for c := 0; c < cycles; c++ {
		if err := e.InjectDeleteAt(nw.Now()+1, 12, last); err != nil {
			t.Fatal(err)
		}
		nw.Run(0)
		if l, h := e.provLive.Load(), heldRecords(e); l != pairs-32 || h != l {
			t.Fatalf("cycle %d: core.prov.live = %d over %d held derivations, want %d", c, l, h, pairs-32)
		}
		mustInject(t, e, nw.Now()+1, 12, last)
		nw.Run(0)
	}
	held()
	if c := e.provCaptured.Load(); c != pairs+cycles*32 {
		t.Fatalf("core.prov.captured = %d, want %d", c, pairs+cycles*32)
	}
}

// Replay wipes the homed maps, and the records with them: both counters
// read 0 right after the wipe, and the re-execution recaptures what the
// original run captured.
func TestReplayZeroesProvCounters(t *testing.T) {
	e, nw := buildProvGrid(t, 4, joinSrc,
		Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 7})
	mustInject(t, e, 10, 3, eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)))
	mustInject(t, e, 20, 9, eval.NewTuple("rb", ast.Int64(2), ast.Int64(2)))
	mustInject(t, e, 30, 9, eval.NewTuple("rb", ast.Int64(2), ast.Int64(3)))
	nw.Run(0)
	provCounts(t, e, 2, 2)

	at := nw.Now() + 5
	e.ReplayAt(at)
	var live, captured int64 = -1, -1
	nw.ScheduleAt(at, func() { live, captured = e.provLive.Load(), e.provCaptured.Load() })
	nw.Run(0)
	if live != 0 || captured != 0 {
		t.Fatalf("after the replay wipe core.prov.live = %d, core.prov.captured = %d; want 0, 0", live, captured)
	}
	provCounts(t, e, 2, 2)
}

// Capture is switched on before Start, so every add candidate carries
// the lineage its producer captured: each record names a real producer,
// was sent no later than it settled, and has one body key per positive
// subgoal of its rule — across joins, recursion, arithmetic and both
// directions of a negation flip.
func TestEveryRecordCarriesItsCandidateLineage(t *testing.T) {
	cases := []struct {
		name string
		src  string
		cfg  Config
		run  func(e *Engine, nw *nsim.Network)
	}{
		{"join", joinSrc, Config{Scheme: gpa.Perpendicular}, func(e *Engine, nw *nsim.Network) {
			mustInject(t, e, 10, 3, eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)))
			mustInject(t, e, 20, 9, eval.NewTuple("rb", ast.Int64(2), ast.Int64(3)))
		}},
		{"negation flip", negFlipSrc, Config{Scheme: gpa.Perpendicular}, func(e *Engine, nw *nsim.Network) {
			blk := eval.NewTuple("blk", ast.Int64(1), ast.Int64(2))
			mustInject(t, e, 10, 5, blk)
			mustInject(t, e, 40, 1, eval.NewTuple("a", ast.Int64(1), ast.Int64(2)))
			nw.Run(0)
			// The blocker's deletion is a negated-pinned delete: it emits
			// an add candidate.
			if err := e.InjectDeleteAt(nw.Now()+1, 5, blk); err != nil {
				t.Fatal(err)
			}
		}},
		{"shortest-path tree", logicJSrc + "\nj(n0, 0).\n", Config{}, func(e *Engine, nw *nsim.Network) {
			injectGridEdges(e, nw)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, nw := buildProvGrid(t, 4, tc.src, tc.cfg, nsim.Config{Seed: 9})
			tc.run(e, nw)
			nw.Run(0)
			pos := map[int32]int{}
			for _, cr := range e.rules {
				pos[int32(cr.rule.ID)] = len(cr.posIdx)
			}
			n := 0
			for _, rt := range e.rts {
				for dk, d := range rt.homed {
					for k, rec := range d.derivs {
						n++
						if rec == nil || rec.DerivKey != k || rec.Head != dk || rec.Settler != int32(rt.node.ID) {
							t.Fatalf("%s/%s: record %+v", dk, k, rec)
						}
						if strings.HasPrefix(k, "fact:") {
							continue
						}
						if len(rec.Body) != pos[rec.Rule] || rec.SentAt > rec.SettledAt || int(rec.Producer) >= nw.Len() {
							t.Fatalf("%s/%s: record %+v does not carry its candidate's lineage", dk, k, rec)
						}
					}
				}
			}
			if n == 0 || int64(n) != e.provLive.Load() {
				t.Fatalf("%d records held, core.prov.live = %d", n, e.provLive.Load())
			}
		})
	}
}

// Under faults one derivation can be held at two homes. Explain shows
// it once, with the record that settled later, wherever the two homes
// sit in node order.
func TestExplainUnionsADerivationHeldAtTwoHomes(t *testing.T) {
	for _, shift := range []int64{-1, +1} {
		e, nw := buildProvGrid(t, 4, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 7})
		mustInject(t, e, 10, 3, eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)))
		mustInject(t, e, 20, 9, eval.NewTuple("rb", ast.Int64(2), ast.Int64(3)))
		nw.Run(0)
		key := eval.NewTuple("out", ast.Int64(1), ast.Int64(3)).Key()
		var home *nodeRT
		for _, rt := range e.rts {
			if rt.homed[key] != nil {
				home = rt
			}
		}
		// A second home on the other side of the first in node order,
		// holding the same derivation settled one tick before or after.
		other := e.rts[0]
		if home == other {
			other = e.rts[len(e.rts)-1]
		}
		h := home.homed[key]
		copied := &homed{t: h.t, id: h.id, derivs: map[string]*provenance.Derivation{}}
		for dk, d := range h.derivs {
			c := *d
			c.Settler, c.SettledAt = int32(other.node.ID), d.SettledAt+shift
			copied.derivs[dk] = &c
		}
		other.homed[key] = copied

		tree, err := e.Explain("out", ast.Int64(1), ast.Int64(3))
		if err != nil || len(tree.Derivs) != 1 {
			t.Fatalf("one derivation at two homes should explain once: %v %+v", err, tree)
		}
		want := home.node.ID
		if shift > 0 {
			want = other.node.ID
		}
		if got := tree.Derivs[0].Settler; got != int32(want) {
			t.Fatalf("shown settled at n%d, want the later-settled record's n%d", got, want)
		}
	}
}
