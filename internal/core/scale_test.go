package core

import (
	"fmt"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/nsim"
)

// A larger deployment: 256 nodes, 120 updates with deletions mixed in.
// Exercises scheduler volume, window bookkeeping and derivation cascades
// at a size closer to real deployments; still compares exactly against
// the oracle.
func TestScaleLargeGridTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("large grid timeline")
	}
	e, nw := buildGrid(t, 16, uncovSrc, Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 77})
	live := map[string]eval.Tuple{}
	origin := map[string]nsim.NodeID{}
	at := nsim.Time(0)
	mk := func(i int) eval.Tuple {
		kind := "enemy"
		if i%3 == 0 {
			kind = "friendly"
		}
		return eval.NewTuple("veh", ast.Symbol(kind),
			ast.Compound("loc", ast.Int64(int64(i%9)), ast.Int64(int64((i*5)%9))),
			ast.Int64(int64(i%3)))
	}
	for i := 0; i < 120; i++ {
		at += nsim.Time(37)
		if i%5 == 4 && len(live) > 0 {
			for k, tup := range live { // delete one arbitrary live tuple
				e.InjectDeleteAt(at, origin[k], tup)
				delete(live, k)
				break
			}
			continue
		}
		tup := mk(i)
		if _, dup := live[tup.Key()]; dup {
			continue
		}
		node := nsim.NodeID((i * 31) % nw.Len())
		live[tup.Key()] = tup
		origin[tup.Key()] = node
		e.InjectAt(at, node, tup)
	}
	nw.Run(0)
	var base []eval.Tuple
	for _, tup := range live {
		base = append(base, tup)
	}
	oracleCompare(t, e, uncovSrc, base, "cov/2", "uncov/2")
	if nw.TotalSent == 0 {
		t.Fatal("no traffic?")
	}
}

// SPT at 15x15 = 225 nodes: the staged XY evaluation still converges to
// the exact BFS tree at scale.
func TestScaleLogicJLargeGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("large SPT")
	}
	m := 15
	nw := topoGrid(m)
	prog := mustProg(t, logicJSrc+"\nj(n0, 0).\n")
	e, err := Deploy(nw, prog, Config{}, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	injectGridEdges(e, nw)
	nw.Run(0)
	j := e.Derived("j/2")
	if len(j) != m*m {
		t.Fatalf("j = %d tuples, want %d", len(j), m*m)
	}
	for _, tup := range j {
		var id int
		mustSscan(t, tup.Args[0].Str, &id)
		p, q := id%m, id/m
		if tup.Args[1].Int != int64(p+q) {
			t.Errorf("depth(%s) = %d, want %d", tup.Args[0].Str, tup.Args[1].Int, p+q)
		}
	}
}

func topoGrid(m int) *nsim.Network {
	nw := nsim.New(nsim.Config{Seed: 79})
	for q := 0; q < m; q++ {
		for p := 0; p < m; p++ {
			nw.AddNode(float64(p), float64(q))
		}
	}
	return nw
}

func mustSscan(t *testing.T, s string, id *int) {
	t.Helper()
	if _, err := fmt.Sscanf(s, "n%d", id); err != nil {
		t.Fatalf("bad node symbol %q", s)
	}
}
