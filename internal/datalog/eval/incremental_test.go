package eval

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/datalog/ast"
)

const uncovSrc = `
cov(L, T) :- veh(enemy, L, T), veh(friendly, L2, T), dist(L, L2) <= 5.
uncov(L, T) :- NOT cov(L, T), veh(enemy, L, T).
`

func vehTuple(kind string, x, y, ts int64) Tuple {
	return NewTuple("veh", ast.Symbol(kind),
		ast.Compound("loc", ast.Int64(x), ast.Int64(y)), ast.Int64(ts))
}

func newMaint(t testing.TB, src string, mode Mode) *Maintainer {
	t.Helper()
	m, err := NewMaintainer(mustProg(t, src), mode, Options{})
	if err != nil {
		t.Fatalf("NewMaintainer: %v", err)
	}
	return m
}

func TestInsertDerivesThroughNegation(t *testing.T) {
	for _, mode := range []Mode{SetOfDerivations, Counting, Rederivation} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMaint(t, uncovSrc, mode)
			enemy := vehTuple("enemy", 50, 50, 1)
			changes, err := m.Insert(enemy)
			if err != nil {
				t.Fatal(err)
			}
			if len(changes) != 1 || !changes[0].Insert || changes[0].Tuple.Name() != "uncov" {
				t.Fatalf("changes = %v", changes)
			}
			if !m.DB().Contains(NewTuple("uncov", ast.Compound("loc", ast.Int64(50), ast.Int64(50)), ast.Int64(1))) {
				t.Error("uncov missing")
			}
		})
	}
}

func TestInsertIntoNegatedStreamRetracts(t *testing.T) {
	for _, mode := range []Mode{SetOfDerivations, Counting, Rederivation} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMaint(t, uncovSrc, mode)
			if _, err := m.Insert(vehTuple("enemy", 0, 0, 1)); err != nil {
				t.Fatal(err)
			}
			if m.DB().Count("uncov/2") != 1 {
				t.Fatal("setup: uncov expected")
			}
			// A friendly vehicle within distance 5 covers the enemy:
			// cov(+) cascades into uncov(-).
			changes, err := m.Insert(vehTuple("friendly", 3, 4, 1))
			if err != nil {
				t.Fatal(err)
			}
			if m.DB().Count("uncov/2") != 0 {
				t.Errorf("uncov should be retracted; changes = %v", changes)
			}
			if m.DB().Count("cov/2") != 1 {
				t.Error("cov missing")
			}
		})
	}
}

func TestDeleteFromNegatedStreamReinstates(t *testing.T) {
	for _, mode := range []Mode{SetOfDerivations, Counting, Rederivation} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMaint(t, uncovSrc, mode)
			enemy := vehTuple("enemy", 0, 0, 1)
			friendly := vehTuple("friendly", 3, 4, 1)
			if _, err := m.Insert(enemy); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Insert(friendly); err != nil {
				t.Fatal(err)
			}
			if m.DB().Count("uncov/2") != 0 {
				t.Fatal("setup: enemy should be covered")
			}
			// Friendly vehicle leaves (tuple expires): uncov returns.
			if _, err := m.Delete(friendly); err != nil {
				t.Fatal(err)
			}
			if m.DB().Count("uncov/2") != 1 {
				t.Errorf("uncov should be reinstated; db=%v", m.DB().Tuples("uncov/2"))
			}
		})
	}
}

func TestMultipleDerivationsSurviveSingleDeletion(t *testing.T) {
	// join(X) :- a(X), b(X, Y): two b-tuples give join(1) two derivations;
	// deleting one must keep join(1) alive (the straightforward
	// set-subtraction pitfall of Section IV-A).
	src := `join(X) :- a(X), b(X, Y).`
	for _, mode := range []Mode{SetOfDerivations, Counting} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMaint(t, src, mode)
			b1 := NewTuple("b", ast.Int64(1), ast.Int64(10))
			b2 := NewTuple("b", ast.Int64(1), ast.Int64(20))
			m.Insert(NewTuple("a", ast.Int64(1)))
			m.Insert(b1)
			m.Insert(b2)
			if m.DB().Count("join/1") != 1 {
				t.Fatal("join(1) expected")
			}
			if _, err := m.Delete(b1); err != nil {
				t.Fatal(err)
			}
			if m.DB().Count("join/1") != 1 {
				t.Error("join(1) must survive: second derivation exists")
			}
			if _, err := m.Delete(b2); err != nil {
				t.Fatal(err)
			}
			if m.DB().Count("join/1") != 0 {
				t.Error("join(1) must die with its last derivation")
			}
		})
	}
}

func TestRederivationSurvivesAlternativeSupport(t *testing.T) {
	src := `join(X) :- a(X), b(X, Y).`
	m := newMaint(t, src, Rederivation)
	m.Insert(NewTuple("a", ast.Int64(1)))
	m.Insert(NewTuple("b", ast.Int64(1), ast.Int64(10)))
	m.Insert(NewTuple("b", ast.Int64(1), ast.Int64(20)))
	if _, err := m.Delete(NewTuple("b", ast.Int64(1), ast.Int64(10))); err != nil {
		t.Fatal(err)
	}
	if m.DB().Count("join/1") != 1 {
		t.Error("rederivation should rediscover join(1)")
	}
	st := m.Stats()
	if st.Rederivations == 0 {
		t.Error("rederivation probes should be counted")
	}
}

func TestSelfJoinDeletion(t *testing.T) {
	src := `pair(X, Y) :- n(X), n(Y), X != Y.`
	for _, mode := range []Mode{SetOfDerivations, Counting, Rederivation} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMaint(t, src, mode)
			for i := int64(1); i <= 3; i++ {
				m.Insert(NewTuple("n", ast.Int64(i)))
			}
			if m.DB().Count("pair/2") != 6 {
				t.Fatalf("pairs = %v", m.DB().Tuples("pair/2"))
			}
			m.Delete(NewTuple("n", ast.Int64(2)))
			if m.DB().Count("pair/2") != 2 {
				t.Errorf("after delete pairs = %v", m.DB().Tuples("pair/2"))
			}
		})
	}
}

// Three occurrences of one predicate put the pinned subgoal before,
// between and after its twins, and the loop edge e(a, a) matches all three
// at once — the case the exact-delta table rule exists for: every
// derivation must be found at exactly one pin position, or Counting
// drifts from the truth (too high: tuples outlive their support; too
// low: they die early). Each step is checked against from-scratch Run.
func TestThreeOccurrenceSelfJoinExactDeltas(t *testing.T) {
	const src = `p(X, Z) :- e(X, Y), e(Y, W), e(W, Z).`
	e := func(a, b string) Tuple { return NewTuple("e", ast.Symbol(a), ast.Symbol(b)) }
	steps := []struct {
		insert bool
		t      Tuple
	}{
		{true, e("a", "b")}, {true, e("a", "a")}, {true, e("b", "a")},
		{false, e("a", "a")}, {true, e("a", "a")}, {true, e("b", "b")},
		{false, e("a", "b")}, {false, e("a", "a")}, {true, e("a", "a")},
		{false, e("b", "a")}, {false, e("b", "b")}, {false, e("a", "a")},
	}
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMaint(t, src, mode)
			var live []Tuple
			for i, st := range steps {
				var err error
				if st.insert {
					live = append(live, st.t)
					_, err = m.Insert(st.t)
				} else {
					for k := range live {
						if live[k].Equal(st.t) {
							live = append(live[:k], live[k+1:]...)
							break
						}
					}
					_, err = m.Delete(st.t)
				}
				if err != nil {
					t.Fatal(err)
				}
				requireSameDB(t, mode, i, m.DB(), mustEval(t, src, live))
			}
			if n := m.DB().TotalSize(); n != 0 {
				t.Errorf("%d tuples survive the deletion of every edge", n)
			}
			if mode == Counting && len(m.counts) != 0 {
				t.Errorf("counts left behind: %v", m.counts)
			}
		})
	}
}

func TestTransitiveClosureMaintenance(t *testing.T) {
	// Locally non-recursive on a DAG: derivation unfolding has no cycles.
	src := `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`
	for _, mode := range []Mode{SetOfDerivations, Counting, Rederivation} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMaint(t, src, mode)
			m.Insert(edge("a", "b"))
			m.Insert(edge("b", "c"))
			m.Insert(edge("c", "d"))
			if m.DB().Count("path/2") != 6 {
				t.Fatalf("paths = %v", m.DB().Tuples("path/2"))
			}
			m.Delete(edge("b", "c"))
			// Remaining: a-b, c-d.
			if m.DB().Count("path/2") != 2 {
				t.Errorf("paths after delete = %v", m.DB().Tuples("path/2"))
			}
		})
	}
}

func TestCountingOverUnderflowOnExactDeltas(t *testing.T) {
	// Repeated insert of the same base tuple is a no-op (set semantics on
	// streams), so counting must not inflate.
	src := `d(X) :- s(X).`
	m := newMaint(t, src, Counting)
	tup := NewTuple("s", ast.Int64(1))
	m.Insert(tup)
	m.Insert(tup) // duplicate
	m.Delete(tup)
	if m.DB().Count("d/1") != 0 {
		t.Error("duplicate base insert inflated count")
	}
}

func TestDuplicateBaseOpsAreNoOps(t *testing.T) {
	m := newMaint(t, uncovSrc, SetOfDerivations)
	enemy := vehTuple("enemy", 1, 1, 1)
	if ch, _ := m.Insert(enemy); len(ch) != 1 {
		t.Fatal("first insert should change")
	}
	if ch, _ := m.Insert(enemy); ch != nil {
		t.Error("duplicate insert should be a no-op")
	}
	if ch, _ := m.Delete(vehTuple("enemy", 9, 9, 9)); ch != nil {
		t.Error("deleting absent tuple should be a no-op")
	}
}

func TestMaintainerStats(t *testing.T) {
	m := newMaint(t, uncovSrc, SetOfDerivations)
	m.Insert(vehTuple("enemy", 0, 0, 1))
	m.Insert(vehTuple("friendly", 1, 1, 1))
	st := m.Stats()
	if st.JoinOps == 0 || st.CascadeSteps == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.DerivationsHeld == 0 {
		t.Error("derivations should be held")
	}
}

// timelineInput is one program plus a generator of base tuples for the
// random insert/delete timelines checked by checkTimeline.
type timelineInput struct {
	name string
	src  string
	gen  func(r *rand.Rand) Tuple
	// insertOnly keeps deletions out of the timeline: the program is
	// recursive through cyclic data, where only full re-evaluation can
	// retract soundly (counting and set-of-derivations keep mutually
	// supporting tuples alive — the paper's locally-non-recursive caveat).
	insertOnly bool
}

// timelineCorpus is the corpus that used to run the indexed evaluator
// against the deleted full-scan one: cyclic transitive closure, negation
// over compound terms, arithmetic built-ins, a three-way self-join. (Its
// fifth program, aggregates, is checked against a direct fold instead:
// the maintainer rejects aggregates.)
func timelineCorpus() []timelineInput {
	return []timelineInput{
		{
			name: "tc-chain-cycle",
			src: `
.base edge/2.
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`,
			gen: func(r *rand.Rand) Tuple {
				return NewTuple("edge", ast.Int64(int64(r.Intn(10))), ast.Int64(int64(r.Intn(10))))
			},
			insertOnly: true,
		},
		{
			name: "negation-uncovered",
			src: `
.base veh/3.
cov(L, T) :- veh(enemy, L, T), veh(friendly, L2, T), dist(L, L2) <= 5.
uncov(L, T) :- NOT cov(L, T), veh(enemy, L, T).
`,
			gen: func(r *rand.Rand) Tuple {
				kind := "enemy"
				if r.Intn(2) == 0 {
					kind = "friendly"
				}
				return vehTuple(kind, int64(r.Intn(5)), int64(r.Intn(5)), int64(r.Intn(2)))
			},
		},
		{
			name: "builtins-arith",
			src: `
.base temp/2.
warm(N, T) :- temp(N, T), T > 50.
bump(N, U) :- temp(N, T), U = T + 1.
pair(N, M) :- warm(N, T), warm(M, T2), N != M.
`,
			gen: func(r *rand.Rand) Tuple {
				return NewTuple("temp",
					ast.Symbol(fmt.Sprintf("n%d", r.Intn(10))), ast.Int64(int64(40+r.Intn(30))))
			},
		},
		{
			name: "self-join-triangle",
			src: `
.base e/2.
tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X), X < Y, Y < Z.
`,
			gen: func(r *rand.Rand) Tuple {
				return NewTuple("e", ast.Int64(int64(r.Intn(6))), ast.Int64(int64(r.Intn(6))))
			},
		},
	}
}

// reachInput is the recursive + negation program whose random op-stream
// TestMaintainerIndexedEquivalence drives in every maintenance mode.
var reachInput = timelineInput{
	name: "reach-flagged-quiet",
	src: `
.base edge/2.
.base mark/1.
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- edge(X, Y), reach(Y, Z).
flagged(X, Y) :- reach(X, Y), mark(X).
quiet(X) :- mark(X), NOT busy(X).
busy(X) :- edge(X, Y).
`,
	gen: func(r *rand.Rand) Tuple {
		if r.Intn(4) == 0 {
			return NewTuple("mark", ast.Int64(int64(r.Intn(5))))
		}
		// DAG edges keep the program locally non-recursive.
		a := r.Intn(5)
		return NewTuple("edge", ast.Int64(int64(a)), ast.Int64(int64(a+1+r.Intn(2))))
	},
}

var allModes = []Mode{SetOfDerivations, Counting, Rederivation}

// checkTimeline drives one maintainer through a seeded timeline of
// insertions and deletions and, every tenth step, demands that its
// database equal full re-evaluation over the surviving base facts. Run
// and the Maintainer reach the join engine through different drivers
// (semi-naive rounds vs per-update cascades with table adjustments), so
// an index or subgoal-ordering bug has to fool both. It returns an FNV-1a
// hash over the ordered stream of Changes the maintainer returned, which
// TestChangeStreamGolden pins.
func checkTimeline(t *testing.T, in timelineInput, mode Mode, seed int64) uint64 {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	m := newMaint(t, in.src, mode)
	stream := fnv.New64a()
	// live holds the surviving base facts in insertion order, so the
	// timeline is the same on every run.
	var live []Tuple
	for step := 0; step < 120; step++ {
		var changes []Change
		var err error
		if len(live) > 0 && !in.insertOnly && r.Intn(100) < 35 {
			k := r.Intn(len(live))
			changes, err = m.Delete(live[k])
			live = append(live[:k], live[k+1:]...)
		} else if tup := in.gen(r); !m.DB().Contains(tup) {
			live = append(live, tup)
			changes, err = m.Insert(tup)
		}
		if err != nil {
			t.Fatalf("%s step %d: %v", mode, step, err)
		}
		for _, c := range changes {
			fmt.Fprintf(stream, "%d %t %s\n", step, c.Insert, c.Tuple.Key())
		}
		if step%10 == 9 {
			requireSameDB(t, mode, step, m.DB(), mustEval(t, in.src, live))
		}
	}
	return stream.Sum64()
}

// The central correctness property (paper Theorem 3 + Section IV-C): after
// any timeline of insertions and deletions, the incrementally maintained
// database equals full re-evaluation over the surviving base facts — for
// all three maintenance modes.
func TestMaintainerEquivalenceRandomTimeline(t *testing.T) {
	progs := []timelineInput{
		{
			name: "uncov",
			src:  uncovSrc,
			gen: func(r *rand.Rand) Tuple {
				kind := "enemy"
				if r.Intn(2) == 0 {
					kind = "friendly"
				}
				return vehTuple(kind, int64(r.Intn(8)), int64(r.Intn(8)), int64(r.Intn(3)))
			},
		},
		{
			name: "paths",
			src: `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`,
			gen: func(r *rand.Rand) Tuple {
				// DAG edges only (i < j) keep the program locally
				// non-recursive, the class the paper's approach covers.
				i := r.Intn(5)
				j := i + 1 + r.Intn(3)
				return NewTuple("edge", ast.Int64(int64(i)), ast.Int64(int64(j)))
			},
		},
		{
			name: "twojoin",
			src: `
t(X, Z) :- rr(X, Y), ss(Y, Z), NOT ex(X, Z).
out(X) :- t(X, Z), Z > 2.
`,
			gen: func(r *rand.Rand) Tuple {
				switch r.Intn(3) {
				case 0:
					return NewTuple("rr", ast.Int64(int64(r.Intn(4))), ast.Int64(int64(r.Intn(4))))
				case 1:
					return NewTuple("ss", ast.Int64(int64(r.Intn(4))), ast.Int64(int64(r.Intn(4))))
				default:
					return NewTuple("ex", ast.Int64(int64(r.Intn(4))), ast.Int64(int64(r.Intn(4))))
				}
			},
		},
	}
	for _, pc := range progs {
		for _, mode := range allModes {
			t.Run(fmt.Sprintf("%s/%s", pc.name, mode), func(t *testing.T) {
				checkTimeline(t, pc, mode, 42)
			})
		}
	}
}

// TestIndexedEquivalence runs the corpus that once compared the indexed
// evaluator with the full-scan one, over several seeds, against the
// references that survive: from-scratch Run vs the Maintainer in every
// mode, and for the aggregates program a fold written out by hand.
func TestIndexedEquivalence(t *testing.T) {
	for _, c := range timelineCorpus() {
		for seed := int64(0); seed < 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				for _, mode := range allModes {
					checkTimeline(t, c, mode, seed*31+1)
				}
			})
		}
	}
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("aggregates/seed%d", seed), func(t *testing.T) {
			checkAggregatesAgainstDirectFold(t, seed*31+1)
		})
	}
}

// TestMaintainerIndexedEquivalence drives the recursive reach/flagged/
// quiet program (negation over a derived predicate included) through
// random insert/delete streams in every maintenance mode, against full
// re-evaluation.
func TestMaintainerIndexedEquivalence(t *testing.T) {
	for _, mode := range allModes {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", mode, seed), func(t *testing.T) {
				checkTimeline(t, reachInput, mode, seed*17+3)
			})
		}
	}
}

// requireSameDB fails unless the maintained database holds exactly the
// tuples of the recomputed one, predicate by predicate in canonical
// order.
func requireSameDB(t *testing.T, mode Mode, step int, got, want *Database) {
	t.Helper()
	for _, pred := range want.Predicates() {
		w := want.Tuples(pred)
		g := got.Tuples(pred)
		if len(w) != len(g) {
			t.Fatalf("%s step %d %s: maintained %d tuples, recomputed %d\nmaint: %v\nfull: %v",
				mode, step, pred, len(g), len(w), g, w)
		}
		for i := range w {
			if !w[i].Equal(g[i]) {
				t.Fatalf("%s step %d %s: mismatch at %d: %v vs %v", mode, step, pred, i, g[i], w[i])
			}
		}
	}
	for _, pred := range got.Predicates() {
		if want.Count(pred) != got.Count(pred) {
			t.Fatalf("%s step %d %s: extra tuples in maintained db: %v", mode, step, pred, got.Tuples(pred))
		}
	}
}

func TestMaintainerRejectsAggregates(t *testing.T) {
	_, err := NewMaintainer(mustProg(t, `s(min<D>) :- p(D).`), SetOfDerivations, Options{})
	if err == nil {
		t.Fatal("aggregates should be rejected")
	}
}
