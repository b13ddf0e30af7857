package main

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/datalog/analysis"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/magic"
	"repro/internal/datalog/parser"
	"repro/internal/nsim"
	"repro/internal/routing"
	"repro/internal/serve"
	"repro/internal/topo"
	"repro/internal/window"
)

// This file drives single layers through their exported functions, at
// the sizes the workload was observed to reach, so that a per-call cost
// exists for layers the harness cannot time inside Run.

// perOp runs batch (which reports how many operations it performed)
// until budget has passed and returns the median cost of one operation
// in nanoseconds. prepare, when not nil, runs untimed before each batch.
func perOp(budget time.Duration, prepare func(), batch func() int) float64 {
	var costs []float64
	for start := time.Now(); len(costs) < 5 || time.Since(start) < budget; {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		n := batch()
		costs = append(costs, ratio(float64(time.Since(t0).Nanoseconds()), float64(n)))
	}
	return median(costs)
}

const driveBudget = 40 * time.Millisecond

func driveFrontEnd(src string, m map[string]float64) {
	m["parser.parse_us"] = perOp(driveBudget, nil, func() int {
		if _, err := parser.Parse(src); err != nil {
			panic(err) // the same text deployed a moment ago
		}
		return 1
	}) / 1e3
	prog, err := parser.Parse(src)
	if err != nil {
		panic(err)
	}
	m["analysis.analyze_us"] = perOp(driveBudget, nil, func() int {
		if _, err := analysis.Analyze(prog); err != nil {
			panic(err)
		}
		return 1
	}) / 1e3
}

// driveWindow replays the head of the workload's tuple stream into a
// window.Store of the size the busiest node reached, and times the four
// calls the node runtime makes on it.
func driveWindow(in *engineInput, size int, m map[string]float64) {
	if size < 1 {
		size = 1
	}
	type item struct {
		t  eval.Tuple
		id window.Stamp
	}
	var items []item
	for i, op := range in.ops {
		if len(items) == size {
			break
		}
		if !op.del {
			items = append(items, item{op.tuple, window.Stamp{TS: op.at, Node: op.node, Seq: int64(i)}})
		}
	}
	fill := func() *window.Store {
		s := window.NewStore()
		for _, it := range items {
			s.Insert(it.t, it.id)
		}
		return s
	}
	last := items[len(items)-1].id
	tau := window.Stamp{TS: last.TS + 1, Node: last.Node, Seq: last.Seq + 1}

	m["window.insert_ns"] = perOp(driveBudget, nil, func() int { fill(); return len(items) })

	s := fill()
	cols := []int{0}
	keys := make([][]byte, len(items))
	for i, it := range items {
		keys[i] = []byte(eval.ArgKey(it.t.Args, cols))
	}
	var scratch []*window.Entry
	m["window.match_ns"] = perOp(driveBudget, nil, func() int {
		for i, it := range items {
			scratch = s.VisibleMatch(it.t.Pred, tau, in.window, cols, keys[i], scratch[:0])
		}
		return len(items)
	})

	// Expiry as the runtime calls it: once per predicate, at a local time
	// at which nothing is old enough to go. With an unbounded window the
	// retention is 0 and the call returns at once.
	var preds []string
	for _, it := range items {
		if len(preds) == 0 || preds[len(preds)-1] != it.t.Pred {
			preds = append(preds, it.t.Pred)
		}
	}
	m["window.expire_ns"] = perOp(driveBudget, nil, func() int {
		const rounds = 64 // one call is too short for the clock
		for i := 0; i < rounds; i++ {
			for _, p := range preds {
				s.ExpirePred(p, tau.TS, in.window)
			}
		}
		return rounds * len(preds)
	})

	m["window.mark_deleted_ns"] = perOp(driveBudget, func() { s = fill() }, func() int {
		for _, it := range items {
			s.MarkDeleted(it.t.Pred, it.id, tau)
		}
		return len(items)
	})
}

// driveRouting walks greedy paths between seeded source nodes and
// target points of the workload's topology and reports the cost of one
// hop decision.
func driveRouting(grid int, seed int64, m map[string]float64) {
	nw := topo.Grid(grid, nsim.Config{})
	nw.Finalize()
	e := routing.NewEngine(nw)
	r := rand.New(rand.NewSource(seed))
	type pair struct {
		from   nsim.NodeID
		tx, ty float64
	}
	pairs := make([]pair, 256)
	for i := range pairs {
		pairs[i] = pair{nsim.NodeID(r.Intn(nw.Len())), float64(r.Intn(grid)), float64(r.Intn(grid))}
	}
	m["routing.next_hop_ns"] = perOp(driveBudget, nil, func() int {
		hops := 0
		for _, p := range pairs {
			hops += len(e.GreedyPath(p.from, p.tx, p.ty, 4*grid))
		}
		return hops
	})
}

// driveMagic times the magic-set rewrite for one goal of each binding
// shape.
func driveMagic(src string, goals map[string]string, m map[string]float64) {
	prog, err := parser.Parse(src)
	if err != nil {
		panic(err)
	}
	for shape, goal := range goals {
		lit, err := core.ParseGoal(prog, goal)
		if err != nil {
			panic(err)
		}
		m["magic.rewrite_"+shape+"_us"] = perOp(driveBudget, nil, func() int {
			if _, err := magic.Rewrite(prog, lit); err != nil {
				panic(err)
			}
			return 1
		}) / 1e3
	}
}

func driveWire(fact string, m map[string]float64) {
	m["wire.fact_parse_ns"] = perOp(driveBudget, nil, func() int {
		if _, err := serve.ParseFact(fact); err != nil {
			panic(err)
		}
		return 1
	})
}
