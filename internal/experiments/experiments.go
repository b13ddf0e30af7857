// Package experiments implements the reproduction of the paper's
// evaluation section (E1..E14 in DESIGN.md). Each experiment returns a
// metrics.Table with the same rows/series the paper reports; the bench
// harness (bench_test.go) and the snbench CLI both drive these
// functions, so EXPERIMENTS.md is regenerated from a single source.
package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/magic"
	"repro/internal/datalog/parser"
	"repro/internal/gpa"
	"repro/internal/metrics"
	"repro/internal/nsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// twoStreamSrc is the canonical windowed two-stream join workload.
const twoStreamSrc = `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
`

func mustProg(src string) *ast.Program {
	p, err := parser.Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// deployGrid deploys an unobserved engine over an m×m grid, with the
// engine fields snlog.Deploy does not expose (SpatialRadius, the energy
// model) open to the caller.
func deployGrid(m int, src string, cfg core.Config, sim nsim.Config) (*core.Engine, *nsim.Network) {
	nw := topo.Grid(m, sim)
	e, err := core.Deploy(nw, mustProg(src), cfg, nil, nil, false)
	if err != nil {
		panic(err)
	}
	return e, nw
}

// injectJoinWorkload injects k ra/rb pairs at random nodes and times with
// matching join keys for about half the pairs.
func injectJoinWorkload(e *core.Engine, nw *nsim.Network, k int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < k; i++ {
		key := int64(i % (k / 2))
		at := nsim.Time(i * 7)
		e.InjectAt(at, nsim.NodeID(r.Intn(nw.Len())),
			eval.NewTuple("ra", ast.Int64(int64(i)), ast.Int64(key)))
		e.InjectAt(at+3, nsim.NodeID(r.Intn(nw.Len())),
			eval.NewTuple("rb", ast.Int64(key), ast.Int64(int64(i))))
	}
}

// E1JoinApproaches — total communication cost of a two-stream windowed
// join under PA vs the degenerate GPA schemes vs a central server
// (Section III-A; DESIGN.md E1).
func E1JoinApproaches(sizes []int, tuplesPerStream int) *metrics.Table {
	t := metrics.NewTable(
		"E1: two-stream join, total communication vs approach",
		"grid m", "nodes", "approach", "messages", "bytes", "msgs/tuple")
	for _, m := range sizes {
		for _, scheme := range []gpa.Scheme{gpa.Perpendicular, gpa.NaiveBroadcast, gpa.LocalStorage, gpa.Centroid, gpa.Centralized} {
			e, nw := deployGrid(m, twoStreamSrc,
				core.Config{Scheme: scheme, Server: nsim.NodeID(m*m/2 + m/2)},
				nsim.Config{Seed: 11})
			injectJoinWorkload(e, nw, 2*tuplesPerStream, 17)
			nw.Run(0)
			t.AddRow(m, m*m, scheme.String(), nw.TotalSent, nw.TotalBytes,
				float64(nw.TotalSent)/float64(4*tuplesPerStream))
		}
	}
	return t
}

// E2LoadBalance — hotspot analysis: maximum per-node load under PA vs
// the centralized server (DESIGN.md E2).
func E2LoadBalance(m int, tuplesPerStream int) *metrics.Table {
	t := metrics.NewTable(
		"E2: per-node load (hotspot), PA vs centralized",
		"approach", "total msgs", "max node load", "avg node load", "max/avg")
	for _, scheme := range []gpa.Scheme{gpa.Perpendicular, gpa.Centroid, gpa.Centralized} {
		e, nw := deployGrid(m, twoStreamSrc,
			core.Config{Scheme: scheme, Server: nsim.NodeID(m*m/2 + m/2)},
			nsim.Config{Seed: 12})
		injectJoinWorkload(e, nw, 2*tuplesPerStream, 23)
		nw.Run(0)
		var total int64
		for _, n := range nw.Nodes() {
			total += n.Sent + n.Received
		}
		avg := float64(total) / float64(nw.Len())
		max := nw.MaxNodeLoad()
		t.AddRow(scheme.String(), nw.TotalSent, max, avg, float64(max)/avg)
	}
	return t
}

// nWaySrc builds an n-stream chain join program.
func nWaySrc(n int) string {
	src := ""
	body := ""
	for i := 1; i <= n; i++ {
		src += fmt.Sprintf(".base r%d/2.\n", i)
		if i > 1 {
			body += ", "
		}
		body += fmt.Sprintf("r%d(X%d, X%d)", i, i-1, i)
	}
	src += fmt.Sprintf("outn(X0, X%d) :- %s.\n", n, body)
	return src
}

// E3MultiStream — n-stream joins, one-pass vs multiple-pass join
// computation (Section III-A's two schemes; DESIGN.md E3).
func E3MultiStream(m int, streams []int, chains int) *metrics.Table {
	t := metrics.NewTable(
		"E3: n-stream join, one-pass vs multiple-pass",
		"streams", "scheme", "messages", "bytes", "results")
	for _, n := range streams {
		for _, multi := range []bool{false, true} {
			name := "one-pass"
			if multi {
				name = "multi-pass"
			}
			e, nw := deployGrid(m, nWaySrc(n),
				core.Config{Scheme: gpa.Perpendicular, MultiPass: multi},
				nsim.Config{Seed: 13})
			r := rand.New(rand.NewSource(29))
			for c := 0; c < chains; c++ {
				for i := 1; i <= n; i++ {
					e.InjectAt(nsim.Time(c*11+i*3), nsim.NodeID(r.Intn(nw.Len())),
						eval.NewTuple(fmt.Sprintf("r%d", i),
							ast.Int64(int64(c*100+i-1)), ast.Int64(int64(c*100+i))))
				}
			}
			nw.Run(0)
			t.AddRow(n, name, nw.TotalSent, nw.TotalBytes,
				len(e.Derived(fmt.Sprintf("outn/2"))))
		}
	}
	return t
}

// E4Spatial — savings from spatial join constraints: regions are clipped
// to a radius around the source (Section III-A; DESIGN.md E4).
func E4Spatial(m int, radii []float64, pairs int) *metrics.Table {
	t := metrics.NewTable(
		"E4: spatial-constraint scoping (radius 0 = unbounded)",
		"radius", "messages", "bytes", "results")
	for _, rad := range radii {
		e, nw := deployGrid(m, twoStreamSrc,
			core.Config{Scheme: gpa.Perpendicular, SpatialRadius: rad},
			nsim.Config{Seed: 14})
		r := rand.New(rand.NewSource(31))
		for i := 0; i < pairs; i++ {
			// Partner tuples generated within 2 hops of each other, so
			// every clipped region still finds them.
			p := r.Intn(m-2) + 1
			q := r.Intn(m-2) + 1
			e.InjectAt(nsim.Time(i*9), topo.GridID(m, p, q),
				eval.NewTuple("ra", ast.Int64(int64(i)), ast.Int64(int64(i))))
			e.InjectAt(nsim.Time(i*9+4), topo.GridID(m, p+1, q+1),
				eval.NewTuple("rb", ast.Int64(int64(i)), ast.Int64(int64(i))))
		}
		nw.Run(0)
		t.AddRow(rad, nw.TotalSent, nw.TotalBytes, len(e.Derived("out/2")))
	}
	return t
}

// logicJSrc is the improved shortest-path-tree program (Section V).
const logicJSrc = `
.base g/2.
.store g/2 at 0 hops 1.
.store j/2 at 0 hops 1.
.store jp/2 at 0.
j(n0, 0).
jp(Y, D1) :- j(Y, Dp), D1 = D + 1, D1 > Dp, j(X, D), g(X, Y).
j(Y, D1) :- g(X, Y), j(X, D), D1 = D + 1, NOT jp(Y, D1).
`

// logicHSrc is Example 3's original program with edge-level tree tuples.
const logicHSrc = `
.base g/2.
.store g/2 at 0 hops 1.
.store h/3 at 1 hops 1.
.store hp/2 at 0.
h(n0, n0, 0).
h(n0, X, 1) :- g(n0, X).
hp(Y, D1) :- h(W, Y, Dp), D1 = D + 1, D1 > Dp, h(V, X, D), g(X, Y).
h(X, Y, D1) :- g(X, Y), h(V, X, D), D1 = D + 1, NOT hp(Y, D1).
`

// runSPTProgram deploys an SPT logic program and injects grid adjacency.
func runSPTProgram(m int, src string, seed int64) (*core.Engine, *nsim.Network) {
	e, nw := deployGrid(m, src, core.Config{}, nsim.Config{Seed: seed})
	injectAdjacency(e)
	nw.Run(0)
	return e, nw
}

// injectAdjacency injects g(n, nb) at node n, at time 0, for every
// neighbor nb of every node n.
func injectAdjacency(e *core.Engine) {
	for _, n := range e.Network().Nodes() {
		for _, nb := range n.Neighbors() {
			e.InjectAt(0, n.ID, eval.NewTuple("g",
				ast.Symbol(fmt.Sprintf("n%d", n.ID)),
				ast.Symbol(fmt.Sprintf("n%d", nb))))
		}
	}
}

// E5SPT — shortest-path-tree construction: the deductive programs logicH
// and logicJ against the procedural baselines (Example 3; DESIGN.md E5).
func E5SPT(sizes []int) *metrics.Table {
	t := metrics.NewTable(
		"E5: shortest-path tree, deductive programs vs procedural baselines",
		"grid m", "nodes", "approach", "messages", "bytes", "correct")
	for _, m := range sizes {
		check := func(depth func(id nsim.NodeID) (int, bool)) bool {
			for q := 0; q < m; q++ {
				for p := 0; p < m; p++ {
					d, ok := depth(topo.GridID(m, p, q))
					if !ok || d != p+q {
						return false
					}
				}
			}
			return true
		}

		eJ, nwJ := runSPTProgram(m, logicJSrc, 41)
		jDepth := map[nsim.NodeID]int{}
		for _, tup := range eJ.Derived("j/2") {
			var id int
			fmt.Sscanf(tup.Args[0].Str, "n%d", &id)
			jDepth[nsim.NodeID(id)] = int(tup.Args[1].Int)
		}
		okJ := check(func(id nsim.NodeID) (int, bool) { d, ok := jDepth[id]; return d, ok })
		t.AddRow(m, m*m, "logicJ (deductive)", nwJ.TotalSent, nwJ.TotalBytes, okJ)

		eH, nwH := runSPTProgram(m, logicHSrc, 43)
		hDepth := map[nsim.NodeID]int{}
		for _, tup := range eH.Derived("h/3") {
			var id int
			fmt.Sscanf(tup.Args[1].Str, "n%d", &id)
			d := int(tup.Args[2].Int)
			if cur, ok := hDepth[nsim.NodeID(id)]; !ok || d < cur {
				hDepth[nsim.NodeID(id)] = d
			}
		}
		okH := check(func(id nsim.NodeID) (int, bool) { d, ok := hDepth[id]; return d, ok })
		t.AddRow(m, m*m, "logicH (deductive)", nwH.TotalSent, nwH.TotalBytes, okH)

		k := baseline.RunKairosSPT(topo.Grid(m, nsim.Config{Seed: 45}), 0)
		okK := check(func(id nsim.NodeID) (int, bool) {
			d := k.Depth[id]
			return d, d >= 0
		})
		t.AddRow(m, m*m, "Kairos-style centralized", k.Messages, k.Bytes, okK)

		b := baseline.RunBellmanFordSPT(topo.Grid(m, nsim.Config{Seed: 45}), 0)
		okB := check(func(id nsim.NodeID) (int, bool) {
			d := b.Depth[id]
			return d, d >= 0
		})
		t.AddRow(m, m*m, "Bellman-Ford (procedural)", b.Messages, b.Bytes, okB)
	}
	return t
}

// E6Deletions — incremental maintenance under deletions: the
// set-of-derivations approach vs counting vs rederivation
// (Section IV-A; DESIGN.md E6).
func E6Deletions(ops int, deleteFracs []float64) *metrics.Table {
	const src = `
cov(L, T) :- veh(enemy, L, T), veh(friendly, L2, T), dist(L, L2) <= 5.
uncov(L, T) :- NOT cov(L, T), veh(enemy, L, T).
`
	t := metrics.NewTable(
		"E6: maintenance under deletions (centralized ablation)",
		"delete %", "approach", "join ops", "scan ops", "derivations held", "rederivations")
	for _, frac := range deleteFracs {
		for _, mode := range []eval.Mode{eval.SetOfDerivations, eval.Counting, eval.Rederivation} {
			mnt, err := eval.NewMaintainer(mustProg(src), mode, eval.Options{})
			if err != nil {
				panic(err)
			}
			r := rand.New(rand.NewSource(53))
			live := []eval.Tuple{}
			for i := 0; i < ops; i++ {
				if len(live) > 0 && r.Float64() < frac {
					k := r.Intn(len(live))
					if _, err := mnt.Delete(live[k]); err != nil {
						panic(err)
					}
					live = append(live[:k], live[k+1:]...)
					continue
				}
				kind := "enemy"
				if r.Intn(2) == 0 {
					kind = "friendly"
				}
				tup := eval.NewTuple("veh", ast.Symbol(kind),
					ast.Compound("loc", ast.Int64(int64(r.Intn(10))), ast.Int64(int64(r.Intn(10)))),
					ast.Int64(int64(r.Intn(4))))
				if _, err := mnt.Insert(tup); err != nil {
					panic(err)
				}
				live = append(live, tup)
			}
			st := mnt.Stats()
			t.AddRow(int(frac*100), mode.String(), st.JoinOps, st.ScanOps, st.DerivationsHeld, st.Rederivations)
		}
	}
	return t
}

// E7Loss — robustness to message loss: result completeness and cost of
// the distributed join under increasing loss rates, bare radio vs
// link-layer ARQ (3 retries), the reliability TinyOS link stacks provide
// (DESIGN.md E7).
func E7Loss(m int, lossRates []float64, pairs int) *metrics.Table {
	t := metrics.NewTable(
		"E7: robustness to message loss (PA join)",
		"loss %", "link ARQ", "messages", "dropped", "results found", "expected", "completeness %")
	for _, loss := range lossRates {
		for _, retries := range []int{0, 3} {
			e, nw := deployGrid(m, twoStreamSrc,
				core.Config{Scheme: gpa.Perpendicular},
				nsim.Config{Seed: 61, LossRate: loss, Retries: retries})
			r := rand.New(rand.NewSource(67))
			for i := 0; i < pairs; i++ {
				e.InjectAt(nsim.Time(i*9), nsim.NodeID(r.Intn(nw.Len())),
					eval.NewTuple("ra", ast.Int64(int64(i)), ast.Int64(int64(i))))
				e.InjectAt(nsim.Time(i*9+4), nsim.NodeID(r.Intn(nw.Len())),
					eval.NewTuple("rb", ast.Int64(int64(i)), ast.Int64(int64(i))))
			}
			nw.Run(0)
			found := len(e.Derived("out/2"))
			arq := "off"
			if retries > 0 {
				arq = fmt.Sprintf("%d retries", retries)
			}
			t.AddRow(int(loss*100), arq, nw.TotalSent, nw.TotalDropped, found, pairs,
				100*float64(found)/float64(pairs))
		}
	}
	return t
}

// E8Latency — generation-to-result latency of the windowed join with
// negation, against the engine's settle delays (DESIGN.md E8).
func E8Latency(sizes []int) *metrics.Table {
	const src = `
.base veh/3.
cov(L, T) :- veh(enemy, L, T), veh(friendly, L2, T), dist(L, L2) <= 5.
uncov(L, T) :- NOT cov(L, T), veh(enemy, L, T).
.query uncov/2.
`
	t := metrics.NewTable(
		"E8: result latency (ticks) vs network size",
		"grid m", "tau_s", "alerts", "avg latency", "max latency")
	for _, m := range sizes {
		e, nw := deployGrid(m, src, core.Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 71})
		injectAts := map[string]nsim.Time{}
		r := rand.New(rand.NewSource(73))
		for i := 0; i < 10; i++ {
			tup := eval.NewTuple("veh", ast.Symbol("enemy"),
				ast.Compound("loc", ast.Int64(int64(100+i)), ast.Int64(int64(100+i))),
				ast.Int64(int64(i)))
			at := nsim.Time(i * 13)
			injectAts[tup.Key()] = at
			e.InjectAt(at, nsim.NodeID(r.Intn(nw.Len())), tup)
		}
		nw.Run(0)
		var sum, max, n int64
		for _, ev := range e.ResultLog {
			if !ev.Insert {
				continue
			}
			// Recover the injection time from the alert's arguments.
			veh := eval.NewTuple("veh", ast.Symbol("enemy"), ev.Tuple.Args[0], ev.Tuple.Args[1])
			at, ok := injectAts[veh.Key()]
			if !ok {
				continue
			}
			lat := int64(ev.At - at)
			sum += lat
			if lat > max {
				max = lat
			}
			n++
		}
		avg := float64(0)
		if n > 0 {
			avg = float64(sum) / float64(n)
		}
		t.AddRow(m, int64(e.TauS()), n, avg, max)
	}
	return t
}

// winSrc is E9's windowed two-stream join.
const winSrc = `
.base ra/2.
.base rb/2.
.window ra/2 400.
.window rb/2 400.
out(X, Z) :- ra(X, Y), rb(Y, Z).
`

// injectLong is E9's long-running stream: 60 ra/rb pairs spread over
// 9,000 ticks — many window ranges — so expiry has something to reclaim.
func injectLong(e *core.Engine, nw *nsim.Network) {
	r := rand.New(rand.NewSource(87))
	for i := 0; i < 60; i++ {
		at := nsim.Time(i * 150)
		e.InjectAt(at, nsim.NodeID(r.Intn(nw.Len())),
			eval.NewTuple("ra", ast.Int64(int64(i)), ast.Int64(int64(i%10))))
		e.InjectAt(at+3, nsim.NodeID(r.Intn(nw.Len())),
			eval.NewTuple("rb", ast.Int64(int64(i%10)), ast.Int64(int64(i))))
	}
}

// E9Memory — per-node memory: stored replicas plus derivation records,
// for the SPT programs and the windowed join (Section V "Memory
// Requirements"; DESIGN.md E9).
func E9Memory(m int) *metrics.Table {
	t := metrics.NewTable(
		"E9: per-node memory (tuples stored: replicas + derivations)",
		"workload", "max node", "p50 node", "avg node", "max/degree")
	maxDegree := 4.0
	// Memory is read through the obs provider path (core.mem.max/p50/
	// total_tuples) rather than by scraping engine internals; providers
	// sample at Snapshot time, so attaching the registry after the run
	// reads the same state.
	memRow := func(label string, e *core.Engine, nw *nsim.Network) {
		reg := obs.NewRegistry()
		nw.Observe(reg, nil)
		e.Observe(reg, nil)
		s := reg.Snapshot()
		maxMem := s.Get("core.mem.max")
		avg := float64(s.Get("core.mem.total_tuples")) / float64(s.Get("nsim.nodes"))
		t.AddRow(label, maxMem, s.Get("core.mem.p50"), avg, float64(maxMem)/maxDegree)
	}

	eJ, nwJ := runSPTProgram(m, logicJSrc, 81)
	memRow("logicJ SPT", eJ, nwJ)

	eH, nwH := runSPTProgram(m, logicHSrc, 83)
	memRow("logicH SPT", eH, nwH)

	e, nw := deployGrid(m, winSrc, core.Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 85})
	injectLong(e, nw)
	nw.Run(0)
	memRow("windowed join (range 400)", e, nw)

	const nowinSrc = `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
`
	e2, nw2 := deployGrid(m, nowinSrc, core.Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 85})
	injectLong(e2, nw2)
	nw2.Run(0)
	memRow("unbounded join (no window)", e2, nw2)
	return t
}

// E10Magic — the magic-set transformation's effect on bottom-up
// evaluation work (Figure 2's optimizer; DESIGN.md E10).
func E10Magic(chains, chainLen int) *metrics.Table {
	const src = `
anc(X, Y) :- par(X, Y).
anc(X, Z) :- par(X, Y), anc(Y, Z).
`
	t := metrics.NewTable(
		"E10: magic sets vs full bottom-up evaluation (ancestor query anc(a00, X))",
		"evaluation", "join ops", "scan ops", "tuples derived", "answers")
	var facts []eval.Tuple
	node := func(c, i int) string {
		return string(rune('a'+c)) + fmt.Sprintf("%02d", i)
	}
	for c := 0; c < chains; c++ {
		for i := 0; i < chainLen; i++ {
			facts = append(facts, eval.NewTuple("par",
				ast.Symbol(node(c, i)), ast.Symbol(node(c, i+1))))
		}
	}

	evFull, err := eval.New(mustProg(src), eval.Options{})
	if err != nil {
		panic(err)
	}
	dbFull, err := evFull.Run(facts)
	if err != nil {
		panic(err)
	}
	var fullAns int
	for _, a := range dbFull.Tuples("anc/2") {
		if a.Args[0].Equal(ast.Symbol("a00")) {
			fullAns++
		}
	}
	t.AddRow("full bottom-up", evFull.JoinOps, evFull.ScanOps, dbFull.TotalSize(), fullAns)

	tr, err := magic.Rewrite(mustProg(src), ast.Lit("anc", ast.Symbol("a00"), ast.Var("X")))
	if err != nil {
		panic(err)
	}
	evMagic, err := eval.New(tr.Program, eval.Options{})
	if err != nil {
		panic(err)
	}
	dbMagic, err := evMagic.Run(facts)
	if err != nil {
		panic(err)
	}
	t.AddRow("magic sets", evMagic.JoinOps, evMagic.ScanOps, dbMagic.TotalSize(), dbMagic.Count(tr.AnswerPred))
	return t
}

// E11Aggregation — TAG-style in-network aggregation vs shipping every
// reading to the sink (the paper points at TAG [32] for evaluating
// aggregates; DESIGN.md extension experiment).
func E11Aggregation(sizes []int) *metrics.Table {
	const src = `
.base reading/2.
coldest(min<T>) :- reading(N, T).
`
	t := metrics.NewTable(
		"E11: in-network aggregation (TAG) vs naive collection",
		"grid m", "nodes", "approach", "messages", "bytes")
	for _, m := range sizes {
		// TAG convergecast.
		e, nw := deployGrid(m, src, core.Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 91})
		for _, n := range nw.Nodes() {
			e.InjectAt(nsim.Time(int(n.ID)%17), n.ID,
				eval.NewTuple("reading", ast.Symbol(fmt.Sprintf("n%d", n.ID)), ast.Int64(int64(n.ID))))
		}
		// Readings are placed locally for aggregation purposes only;
		// isolate the collection cost by snapshotting counters first.
		nw.Run(0)
		base := nw.TotalSent
		baseBytes := nw.TotalBytes
		if err := e.CollectAggregateAt(nw.Now()+10, "coldest/1", 0); err != nil {
			panic(err)
		}
		nw.Run(0)
		res := e.AggregateResult("coldest/1")
		if len(res) != 1 || res[0].Args[0].Int != 0 {
			panic(fmt.Sprintf("E11: wrong aggregate %v", res))
		}
		t.AddRow(m, m*m, "TAG convergecast", nw.TotalSent-base, nw.TotalBytes-baseBytes)

		// Naive: every node unicasts its reading to the sink over the
		// shortest-path tree (Bellman-Ford routes).
		nwN := topo.Grid(m, nsim.Config{Seed: 93})
		bfr := baseline.RunBellmanFordSPT(nwN, 0)
		var msgs, bytes int64
		msgs = bfr.Messages // tree setup cost
		bytes = bfr.Bytes
		for id, d := range bfr.Depth {
			_ = id
			msgs += int64(d) // one reading travels d hops
			bytes += int64(d) * 12
		}
		t.AddRow(m, m*m, "naive unicast-to-sink", msgs, bytes)
	}
	return t
}

// E12Lifetime — network lifetime under a sustained join workload with a
// per-node energy budget: the paper's motivating claim that shipping
// everything to a central server "may result in quick failure of the
// nodes close to the server" (Section III-A), versus PA's load
// spreading.
func E12Lifetime(m int, budget float64, updates int) *metrics.Table {
	t := metrics.NewTable(
		"E12: network lifetime under energy budgets (sustained join workload)",
		"approach", "first death at", "deaths", "dead near sink", "results delivered")
	for _, scheme := range []gpa.Scheme{gpa.Perpendicular, gpa.Centroid, gpa.Centralized} {
		server := nsim.NodeID(m*m/2 + m/2)
		sim := nsim.Config{
			Seed:         101,
			EnergyBudget: budget,
			TxCostBase:   1.0, TxCostByte: 0.02,
			RxCostBase: 0.5, RxCostByte: 0.01,
		}
		e, nw := deployGrid(m, twoStreamSrc, core.Config{Scheme: scheme, Server: server}, sim)
		r := rand.New(rand.NewSource(103))
		for i := 0; i < updates; i++ {
			at := nsim.Time(i * 40)
			e.InjectAt(at, nsim.NodeID(r.Intn(nw.Len())),
				eval.NewTuple("ra", ast.Int64(int64(i)), ast.Int64(int64(i))))
			e.InjectAt(at+13, nsim.NodeID(r.Intn(nw.Len())),
				eval.NewTuple("rb", ast.Int64(int64(i)), ast.Int64(int64(i))))
		}
		nw.Run(0)
		// Deaths within 2 hops of the sink (the paper's "nodes close to
		// the server").
		sinkNode := nw.Node(server)
		nearDead := 0
		for _, n := range nw.Nodes() {
			if !n.Down {
				continue
			}
			dx, dy := n.X-sinkNode.X, n.Y-sinkNode.Y
			if dx*dx+dy*dy <= 4.0+1e-9 {
				nearDead++
			}
		}
		first := "never"
		if nw.FirstDeath > 0 {
			first = fmt.Sprintf("t=%d", nw.FirstDeath)
		}
		t.AddRow(scheme.String(), first, nw.Deaths, nearDead, len(e.Derived("out/2")))
	}
	return t
}

// E14Churn — derived-set convergence and message cost as fault churn
// scales, driven by the differential harness (internal/check): each
// run generates a seeded (program, workload, fault schedule) triple,
// executes it on the simulated grid, and counts the repair rounds and
// repair traffic Engine.Replay needs to restore oracle equality after
// the faults heal. Churn 0 is the control: it must converge without
// repair, pinning the harness itself as a no-op on clean runs.
func E14Churn(churns []int, seeds int) *metrics.Table {
	t := metrics.NewTable(
		"E14: derived-set convergence and repair cost vs fault churn",
		"churn", "runs", "converged", "avg rounds", "avg msgs", "avg repair msgs", "blocked", "dups", "reorders")
	for _, c := range churns {
		var conv, rounds int
		var msgs, repair, blocked, dups, reorders int64
		for s := 0; s < seeds; s++ {
			res, err := check.Run(check.Config{Seed: int64(1000*c + s), Churn: c})
			if err != nil {
				panic(fmt.Sprintf("E14 churn %d seed %d: %v", c, s, err))
			}
			if res.Converged {
				conv++
			}
			rounds += res.Rounds
			msgs += res.Messages
			repair += res.RepairMessages
			blocked += res.Faults.Blocked
			dups += res.Faults.Duplicated
			reorders += res.Faults.Reordered
		}
		n := float64(seeds)
		t.AddRow(c, seeds, conv,
			fmt.Sprintf("%.2f", float64(rounds)/n),
			int64(float64(msgs)/n), int64(float64(repair)/n),
			blocked, dups, reorders)
	}
	return t
}
