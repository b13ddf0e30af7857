package check

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/parser"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

const dumpSrc = `.base b/2.
d(X, Y) :- b(X, Y).
`

// dumpEngine runs dumpSrc on a small grid with provenance attached and
// the given base tuples injected at node 0.
func dumpEngine(t *testing.T, base ...eval.Tuple) *core.Engine {
	t.Helper()
	prog, err := parser.Parse(dumpSrc)
	if err != nil {
		t.Fatal(err)
	}
	nw := topo.Grid(3, nsim.Config{Seed: 5})
	e, err := core.Deploy(nw, prog, core.Config{Scheme: gpa.Perpendicular}, obs.NewRegistry(), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range base {
		if err := e.InjectAt(0, 0, tup); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(0)
	return e
}

// An engine-extra tuple (the simulated run kept state the oracle says
// should be gone) dumps the engine's provenance tree and the oracle's
// refusal.
func TestExplainDumpEngineExtra(t *testing.T) {
	e := dumpEngine(t, eval.NewTuple("b", ast.Int64(7), ast.Int64(8)))
	want, err := oracle(dumpSrc, nil) // oracle: the base fact was deleted
	if err != nil {
		t.Fatal(err)
	}
	dump := explainDump(dumpSrc, nil, []string{"d/2"}, want, e)
	if dump == "" {
		t.Fatal("divergent states produced an empty dump")
	}
	for _, part := range []string{
		"first divergent tuple: d/2|i7,i8",
		"the engine derives it, the oracle does not",
		"<- rule",                // the engine-side provenance tree
		"b/2|i7,i8",              // ...grounded in the base fact
		"is not in the database", // the oracle side refuses
	} {
		if !strings.Contains(dump, part) {
			t.Errorf("dump missing %q:\n%s", part, dump)
		}
	}
}

// An oracle-extra tuple (the engine lost a derivation) dumps the
// oracle's proof tree and the engine's refusal.
func TestExplainDumpOracleExtra(t *testing.T) {
	e := dumpEngine(t) // engine never saw the base fact
	base := []eval.Tuple{eval.NewTuple("b", ast.Int64(9), ast.Int64(4))}
	want, err := oracle(dumpSrc, base)
	if err != nil {
		t.Fatal(err)
	}
	dump := explainDump(dumpSrc, base, []string{"d/2"}, want, e)
	if dump == "" {
		t.Fatal("divergent states produced an empty dump")
	}
	for _, part := range []string{
		"first divergent tuple: d/2|i9,i4",
		"the oracle derives it, the engine does not",
		"no live derivation", // the engine side refuses
		"b(9, 4)",            // the oracle proof tree reaches the base fact
	} {
		if !strings.Contains(dump, part) {
			t.Errorf("dump missing %q:\n%s", part, dump)
		}
	}
}

// Matching states produce no dump.
func TestExplainDumpAgreement(t *testing.T) {
	tup := eval.NewTuple("b", ast.Int64(3), ast.Int64(6))
	e := dumpEngine(t, tup)
	want, err := oracle(dumpSrc, []eval.Tuple{tup})
	if err != nil {
		t.Fatal(err)
	}
	if d := diff([]string{"d/2"}, want, e); d != "" {
		t.Fatalf("engine and oracle should agree, diff: %s", d)
	}
	if dump := explainDump(dumpSrc, []eval.Tuple{tup}, []string{"d/2"}, want, e); dump != "" {
		t.Fatalf("agreeing states produced a dump:\n%s", dump)
	}
}
