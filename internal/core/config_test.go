package core

import (
	"strings"
	"testing"

	"repro/internal/nsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

func TestConfigDefaultsDerivedFromGeometry(t *testing.T) {
	engine := func(m int, skew nsim.Time) *Engine {
		e, err := New(topo.Grid(m, nsim.Config{MaxSkew: skew}), mustProg(t, joinSrc), Config{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := engine(6, 0)
	if e.tauS <= 0 || e.tauJ <= 0 || e.finalizeGap <= 0 {
		t.Errorf("bounds not derived: τs=%d τj=%d gap=%d", e.tauS, e.tauJ, e.finalizeGap)
	}
	// Larger networks get larger settle bounds.
	big := engine(12, 0)
	if big.tauS <= e.tauS || big.tauJ <= e.tauJ || big.finalizeGap <= e.finalizeGap {
		t.Errorf("bounds should grow with diameter: τs %d vs %d, τj %d vs %d, gap %d vs %d",
			big.tauS, e.tauS, big.tauJ, e.tauJ, big.finalizeGap, e.finalizeGap)
	}
	// τc is the network's clock-skew bound.
	if skewed := engine(6, 7); skewed.tauC != 7 {
		t.Errorf("τc = %d, want the network's MaxSkew 7", skewed.tauC)
	}
}

func TestEngineStringListsRulesAndModes(t *testing.T) {
	nw := topo.Grid(4, nsim.Config{})
	src := `
.base g/2.
.store g/2 at 0 hops 1.
.store j/2 at 0 hops 1.
.store jp/2 at 0.
j(n0, 0).
jp(Y, D1) :- j(Y, Dp), D1 = D + 1, D1 > Dp, j(X, D), g(X, Y).
j(Y, D1) :- g(X, Y), j(X, D), D1 = D + 1, NOT jp(Y, D1).
`
	e, err := New(nw, mustProg(t, src), Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := e.String()
	if !strings.Contains(out, "[local]") {
		t.Errorf("placed rules should compile to local mode:\n%s", out)
	}
	if !strings.Contains(out, "scheme=perpendicular") {
		t.Errorf("scheme missing:\n%s", out)
	}
}

func TestUnstratifiableProgramRejectedByEngine(t *testing.T) {
	nw := topo.Grid(3, nsim.Config{})
	if _, err := New(nw, mustProg(t, `win(X) :- move(X, Y), NOT win(Y).`), Config{}); err == nil {
		t.Error("unstratifiable program should be rejected at compile")
	}
}

func TestAnalysisAccessor(t *testing.T) {
	e, _ := buildGrid(t, 3, joinSrc, Config{}, nsim.Config{Seed: 41})
	if e.Analysis() == nil || !e.Analysis().Stratified {
		t.Error("analysis accessor broken")
	}
	if e.Network() == nil {
		t.Error("network accessor broken")
	}
}

func TestDerivedStateQueriesEmptyEngine(t *testing.T) {
	e, _ := buildGrid(t, 3, joinSrc, Config{}, nsim.Config{Seed: 42})
	if n := len(e.Derived("out/2")); n != 0 {
		t.Errorf("fresh engine derived = %d", n)
	}
	reg := obs.NewRegistry()
	e.Observe(reg, nil)
	if s := reg.Snapshot(); s.Get("core.mem.max_tuples") != 0 || s.Get("core.mem.total_tuples") != 0 {
		t.Errorf("fresh memory = %d/%d", s.Get("core.mem.max_tuples"), s.Get("core.mem.total_tuples"))
	}
}
