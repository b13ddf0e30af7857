package analysis

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/parser"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestSafetyAccepts(t *testing.T) {
	srcs := []string{
		`p(X) :- q(X).`,
		`p(X, Y) :- q(X), r(Y), X < Y.`,
		`p(X) :- q(Y), X = Y + 1.`,
		`p(X) :- q(Y), Y + 1 = X.`, // reversed equality
		`p(X) :- q(X), NOT r(X).`,
		`p(Z) :- q(X), Y = X * 2, Z = Y + 1.`, // chained equalities
	}
	for _, src := range srcs {
		if err := CheckSafety(mustParse(t, src)); err != nil {
			t.Errorf("CheckSafety(%q) = %v", src, err)
		}
	}
}

func TestSafetyRejects(t *testing.T) {
	srcs := []string{
		`p(X) :- q(Y).`,              // head var unlimited
		`p(X) :- q(X), NOT r(X, Y).`, // negated-only var
		`p(X) :- q(X), X < Y.`,       // comparison-only var
		`p(X) :- NOT q(X).`,          // all-negative rule
		`p(X) :- q(Y), X = Z + 1.`,   // equality over unlimited var
	}
	for _, src := range srcs {
		if err := CheckSafety(mustParse(t, src)); err == nil {
			t.Errorf("CheckSafety(%q) should fail", src)
		}
	}
}

func TestDepGraphEdges(t *testing.T) {
	p := mustParse(t, `
cov(L, T) :- veh(L, T), base(L).
uncov(L, T) :- NOT cov(L, T), veh(L, T).
`)
	g := BuildDepGraph(p)
	if dep, neg := g.DependsOn("cov/2", "veh/2"); !dep || neg {
		t.Errorf("cov->veh = %v, %v", dep, neg)
	}
	if dep, neg := g.DependsOn("uncov/2", "cov/2"); !dep || !neg {
		t.Errorf("uncov->cov = %v, %v", dep, neg)
	}
	if dep, _ := g.DependsOn("veh/2", "cov/2"); dep {
		t.Error("veh should not depend on cov")
	}
}

func TestStratifiedNonRecursive(t *testing.T) {
	p := mustParse(t, `
cov(L, T) :- veh(L, T), fr(L, T).
uncov(L, T) :- NOT cov(L, T), veh(L, T).
alert(L) :- uncov(L, T), T > 5.
`)
	res, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stratified || res.Recursive {
		t.Errorf("stratified=%v recursive=%v", res.Stratified, res.Recursive)
	}
	if res.Strata["veh/2"] != 0 {
		t.Errorf("veh stratum = %d", res.Strata["veh/2"])
	}
	if res.Strata["cov/2"] != 0 {
		t.Errorf("cov stratum = %d", res.Strata["cov/2"])
	}
	if res.Strata["uncov/2"] != 1 {
		t.Errorf("uncov stratum = %d", res.Strata["uncov/2"])
	}
	if res.Strata["alert/1"] != 1 {
		t.Errorf("alert stratum = %d", res.Strata["alert/1"])
	}
	if res.NumStrata != 2 {
		t.Errorf("NumStrata = %d", res.NumStrata)
	}
}

func TestStratifiedPositiveRecursion(t *testing.T) {
	p := mustParse(t, `
reach(X) :- source(X).
reach(Y) :- reach(X), edge(X, Y).
`)
	res, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stratified || !res.Recursive {
		t.Errorf("stratified=%v recursive=%v", res.Stratified, res.Recursive)
	}
}

func TestUnstratifiableRejected(t *testing.T) {
	// win(X) :- move(X, Y), NOT win(Y): negation through recursion with
	// no stage argument — must be rejected.
	p := mustParse(t, `win(X) :- move(X, Y), NOT win(Y).`)
	if _, err := Analyze(p); err == nil {
		t.Fatal("win/move program should be rejected")
	}
}

func TestLogicHIsXYStratified(t *testing.T) {
	// Example 3 of the paper (shortest-path tree).
	p := mustParse(t, `
.base g/2.
h(a, a, 0).
h(a, X, 1) :- g(a, X).
hp(Y, D1) :- h(_, Y, Dp), D1 = D + 1, D1 > Dp, h(_, X, D), g(X, Y).
h(X, Y, D1) :- g(X, Y), h(_, X, D), D1 = D + 1, NOT hp(Y, D1).
`)
	res, err := Analyze(p)
	if err != nil {
		t.Fatalf("logicH should be accepted: %v", err)
	}
	if res.Stratified {
		t.Error("logicH is not plainly stratified")
	}
	if !res.XYStratified {
		t.Error("logicH should be XY-stratified")
	}
	var w *XYWitness
	for _, ww := range res.XY {
		w = ww
	}
	if w == nil {
		t.Fatal("no XY witness recorded")
	}
	if w.StageArg["h/3"] != 2 {
		t.Errorf("h/3 stage arg = %d, want 2", w.StageArg["h/3"])
	}
	if w.StageArg["hp/2"] != 1 {
		t.Errorf("hp/2 stage arg = %d, want 1", w.StageArg["hp/2"])
	}
	// hp must be ordered before h within a stage.
	if len(w.SameStageOrder) != 2 || w.SameStageOrder[0] != "hp/2" {
		t.Errorf("same-stage order = %v", w.SameStageOrder)
	}
}

func TestLogicJIsXYStratified(t *testing.T) {
	// The improved logicJ program (Section V/VI): per-node depth only.
	p := mustParse(t, `
.base g/2.
j(a, 0).
jp(Y, D1) :- j(Y, Dp), D1 = D + 1, D1 > Dp, j(X, D), g(X, Y).
j(Y, D1) :- g(X, Y), j(X, D), D1 = D + 1, NOT jp(Y, D1).
`)
	res, err := Analyze(p)
	if err != nil {
		t.Fatalf("logicJ should be accepted: %v", err)
	}
	if !res.XYStratified {
		t.Error("logicJ should be XY-stratified")
	}
}

func TestTrajectoryProgramStratified(t *testing.T) {
	// Example 2: recursion over lists plus negation on non-recursive
	// predicates — plainly stratified.
	p := mustParse(t, `
.base report/1.
notStart(R2) :- report(R1), report(R2), close(R1, R2).
notLast(R1) :- report(R1), report(R2), close(R1, R2).
traj([R2, R1]) :- report(R1), report(R2), close(R1, R2), NOT notStart(R1).
traj([R2, R1 | X]) :- traj([R1 | X]), report(R2), close(R1, R2).
complete(L) :- traj(L), L = [R | _], NOT notLast(R).
`)
	res, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stratified {
		t.Error("trajectory program should be stratified")
	}
	if !res.Recursive {
		t.Error("traj is recursive")
	}
	if res.Strata["traj/1"] != 1 {
		t.Errorf("traj stratum = %d (notStart must come first)", res.Strata["traj/1"])
	}
}

func TestAggregateOverRecursionRejected(t *testing.T) {
	p := mustParse(t, `
p(X, min<D>) :- p(Y, D), e(Y, X).
`)
	if _, err := Analyze(p); err == nil {
		t.Fatal("aggregate over recursion should be rejected")
	}
}

func TestAggregateNonRecursiveAccepted(t *testing.T) {
	p := mustParse(t, `
short(X, min<D>) :- path(X, D).
`)
	if _, err := Analyze(p); err != nil {
		t.Fatalf("non-recursive aggregate: %v", err)
	}
}

func TestSCCsMutualRecursion(t *testing.T) {
	p := mustParse(t, `
evn(X) :- zero(X).
evn(Y) :- od(X), succ(X, Y).
od(Y) :- evn(X), succ(X, Y).
`)
	g := BuildDepGraph(p)
	sccs := g.SCCs()
	var big []string
	for _, s := range sccs {
		if len(s) > 1 {
			big = s
		}
	}
	if len(big) != 2 {
		t.Fatalf("expected one 2-element SCC, got %v", sccs)
	}
	if !g.sameSCC("evn/1", "od/1") {
		t.Error("evn and od should share an SCC")
	}
}

func TestUnsafeRuleErrorMentionsVariable(t *testing.T) {
	p := mustParse(t, `p(X, Y) :- q(X).`)
	err := CheckSafety(p)
	if err == nil || !strings.Contains(err.Error(), "Y") {
		t.Errorf("err = %v", err)
	}
}

func TestXYRejectsStageDecrease(t *testing.T) {
	// Head stage lower than a negated body stage: not XY.
	p := mustParse(t, `
q(X, D) :- base(X, D).
q(X, D) :- q(X, D1), D = D1 - 1, NOT r(X, D1).
r(X, D) :- q(X, D1), D = D1 + 1.
`)
	res, err := Analyze(p)
	if err == nil && !res.Stratified {
		t.Log("accepted; verifying it at least found a witness")
	}
	// This program has r depending on q at lower stage and q depending on
	// r at higher stage — the q rule reads r at stage D1 = D+1 > head D.
	if err == nil && res != nil && !res.Stratified && res.XYStratified {
		t.Fatal("stage-decreasing negation should not be XY-stratified")
	}
}

func TestStageRelationViaComparisonWitness(t *testing.T) {
	// Stage relation of h(Y, Dp) is provable only through the comparison
	// subgoal D1 > Dp; h2 feeds from the previous stage.
	p := mustParse(t, `
h(Y, D1) :- h(Y, Dp), D1 = D + 1, D1 > Dp, h(X, D), g(X, Y), NOT h2(Y, D1).
h2(Y, D1) :- h(Y, D), D1 = D + 1.
h(a, 0).
`)
	res, err := Analyze(p)
	if err != nil {
		t.Fatalf("comparison-witnessed program rejected: %v", err)
	}
	if res.Stratified {
		t.Error("program is not plainly stratified")
	}
	if !res.XYStratified {
		t.Error("program should be XY-stratified via comparison witness")
	}
}

func TestNormalizeStage(t *testing.T) {
	eq := map[string]ast.Term{
		"D1": ast.Compound("+", ast.Var("D"), ast.Int64(1)),
	}
	se, ok := normalizeStage(ast.Var("D1"), eq, map[string]bool{})
	if !ok || se.Base != "D" || se.Offset != 1 {
		t.Errorf("normalize(D1) = %v, %v", se, ok)
	}
	se, ok = normalizeStage(ast.Compound("-", ast.Var("X"), ast.Int64(2)), nil, map[string]bool{})
	if !ok || se.Base != "X" || se.Offset != -2 {
		t.Errorf("normalize(X-2) = %v, %v", se, ok)
	}
	se, ok = normalizeStage(ast.Int64(7), nil, map[string]bool{})
	if !ok || !se.isConst() || se.Offset != 7 {
		t.Errorf("normalize(7) = %v, %v", se, ok)
	}
	if _, ok := normalizeStage(ast.Compound("*", ast.Var("X"), ast.Int64(2)), nil, map[string]bool{}); ok {
		t.Error("X*2 should not normalize")
	}
}

func TestNormalizeStageCyclicEqualities(t *testing.T) {
	eq := map[string]ast.Term{
		"A": ast.Compound("+", ast.Var("B"), ast.Int64(1)),
		"B": ast.Compound("+", ast.Var("A"), ast.Int64(1)),
	}
	// Must terminate (cycle guard) and produce something sane.
	if _, ok := normalizeStage(ast.Var("A"), eq, map[string]bool{}); !ok {
		t.Error("cyclic equalities should still normalize to a base var")
	}
}

func TestTopoSortCycleDetection(t *testing.T) {
	nodes := map[string]bool{"a": true, "b": true}
	edges := map[string]map[string]bool{
		"a": {"b": true},
		"b": {"a": true},
	}
	if _, ok := topoSort(nodes, edges); ok {
		t.Error("cycle not detected")
	}
}

// A rule body is limited to 64 literals — the evaluators track body
// positions in a uint64 — and the limit is enforced here, once, for every
// engine built on the analysis.
func TestBodyLiteralLimit(t *testing.T) {
	body := func(n int) string { return "q(X) :- p(X)" + strings.Repeat(", X >= 0", n-1) + "." }
	if _, err := Analyze(mustParse(t, body(64))); err != nil {
		t.Errorf("64 body literals refused: %v", err)
	}
	_, err := Analyze(mustParse(t, body(65)))
	if err == nil || !strings.Contains(err.Error(), "has 65 body literals (limit 64)") || !strings.HasPrefix(err.Error(), "analysis: rule ") {
		t.Errorf("65 body literals: err = %v", err)
	}
	// The same bound holds for a rule's variables (register slots).
	vars := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i += 2 {
			fmt.Fprintf(&b, "p(X%d, X%d), ", i, i+1)
		}
		return "q(X0) :- " + strings.TrimSuffix(b.String(), ", ") + "."
	}
	if _, err := Analyze(mustParse(t, vars(64))); err != nil {
		t.Errorf("64 variables refused: %v", err)
	}
	if _, err := Analyze(mustParse(t, vars(66))); err == nil || !strings.Contains(err.Error(), "has 66 variables (limit 64)") {
		t.Errorf("66 variables: err = %v", err)
	}
}
