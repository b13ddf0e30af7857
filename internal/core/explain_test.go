package core

import (
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

// buildProvGrid is buildGrid with the observability layer and a
// provenance graph attached before deployment.
func buildProvGrid(t testing.TB, m int, src string, cfg Config, simCfg nsim.Config) (*Engine, *nsim.Network, *provenance.Graph) {
	t.Helper()
	nw := topo.Grid(m, simCfg)
	g := provenance.NewGraph()
	e, err := Deploy(nw, mustProg(t, src), cfg, obs.NewRegistry(), nil, g)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return e, nw, g
}

func mustInject(t testing.TB, e *Engine, at nsim.Time, node nsim.NodeID, tup eval.Tuple) {
	t.Helper()
	if err := e.InjectAt(at, node, tup); err != nil {
		t.Fatal(err)
	}
}

func TestExplainTwoStreamJoin(t *testing.T) {
	e, nw, _ := buildProvGrid(t, 5, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 7})
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
	e, nw, _ := buildProvGrid(t, 4, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 7})
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
// set-of-derivations store garbage-collects its provenance with it.
func TestExplainDeletedByNegationFlip(t *testing.T) {
	e, nw, g := buildProvGrid(t, 4, negFlipSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 3})
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
	if g.Live("d/2|i1,i2") {
		t.Fatal("the provenance graph should have dropped the derivation")
	}
	// History is retained even though liveness is gone.
	if g.Captured() == 0 {
		t.Fatal("captured count should survive the deletion")
	}
}

func TestExplainQueryValidation(t *testing.T) {
	e, nw, _ := buildProvGrid(t, 4, joinSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 7})
	nw.Run(0)
	if _, err := e.Explain("nosuch", ast.Int64(1)); err == nil {
		t.Fatal("unknown predicate should error")
	}
	if _, err := e.Explain("out", ast.Var("X"), ast.Int64(3)); err == nil {
		t.Fatal("non-ground arguments should error")
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
	e, nw, g := buildProvGrid(t, 4, joinSrc,
		Config{Scheme: gpa.Perpendicular, ReplayLog: true}, nsim.Config{Seed: 7})
	mustInject(t, e, 10, 3, eval.NewTuple("ra", ast.Int64(1), ast.Int64(2)))
	mustInject(t, e, 20, 9, eval.NewTuple("rb", ast.Int64(2), ast.Int64(3)))
	nw.Run(0)
	before := g.Captured()
	if before == 0 {
		t.Fatal("no provenance captured before replay")
	}

	if err := e.Replay(); err != nil {
		t.Fatal(err)
	}
	nw.Run(0)
	tree, err := e.Explain("out", ast.Int64(1), ast.Int64(3))
	if err != nil {
		t.Fatalf("replayed derivation should be explainable: %v", err)
	}
	if len(tree.Derivs) != 1 || len(tree.Derivs[0].Body) != 2 {
		t.Fatalf("rebuilt tree = %+v", tree)
	}
}
