package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	snlog "repro"
	"repro/internal/core"
	"repro/internal/datalog/analysis"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/parser"
	"repro/internal/nsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

const joinSrc = `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
`

// logicJSrc is the paper's improved shortest-path-tree program
// (Section V): recursion, arithmetic built-ins and NOT jp.
const logicJSrc = `
.base g/2.
.store g/2 at 0 hops 1.
.store j/2 at 0 hops 1.
.store jp/2 at 0.
j(n0, 0).
jp(Y, D1) :- j(Y, Dp), D1 = D + 1, D1 > Dp, j(X, D), g(X, Y).
j(Y, D1) :- g(X, Y), j(X, D), D1 = D + 1, NOT jp(Y, D1).
`

// Stream shape shared by the two join workloads: pair i is generated at
// tick i*pairGap, its rb half rbLag ticks later.
const (
	pairGap  = 7
	rbLag    = 3
	maxSkew  = 5
	churnLag = 1500 // a deleted ra tuple lives this many ticks
)

// sizing scales the workloads; full is what BENCHMARK.json measures,
// smoke the seconds-sized variant of smoke_test.go.
type sizing struct {
	joinGrid    int
	windowPairs int
	window      int64
	churnPairs  int
	sptGrid     int

	serveGrid   int
	chains      int
	chainLen    int
	hotGoals    int
	coldPairs   int // serve_cold: bound-bound goals per chain position
	churnGoals  int // per rule family
	warmQueries int // per connection, before the timed region

	engineSetups int // how often a run repeats its set-up
	serveSetups  int
	minReps      int
}

var full = sizing{
	joinGrid: 64, windowPairs: 1200, window: 2000, churnPairs: 1600, sptGrid: 80,
	serveGrid: 12, chains: 4, chainLen: 32, hotGoals: 32, coldPairs: 3, churnGoals: 16,
	warmQueries: 32, engineSetups: 5, serveSetups: 3, minReps: 3,
}

var smoke = sizing{
	joinGrid: 10, windowPairs: 80, window: 150, churnPairs: 80, sptGrid: 8,
	serveGrid: 5, chains: 2, chainLen: 6, hotGoals: 4, coldPairs: 1, churnGoals: 2,
	warmQueries: 4, engineSetups: 1, serveSetups: 1, minReps: 2,
}

// baseOp is one generated input: a base fact inserted (or deleted) at a
// node at a virtual time.
type baseOp struct {
	at    int64
	node  int
	tuple snlog.Tuple
	del   bool
}

// engineInput is everything the program under test sees, plus the
// oracle's expected derived set.
type engineInput struct {
	workload string
	src      string
	grid     int
	scheme   snlog.Scheme
	window   int64
	skew     int64
	seed     int64
	ops      []baseOp
	check    []string // derived predicates compared against the oracle

	survivors []snlog.Tuple          // base facts alive at quiescence
	keep      func(snlog.Tuple) bool // window filter over the oracle's model; nil keeps all
	expect    map[string]snlog.Tuple // oracle: tuple key -> tuple
	oracleS   float64                // eval.oracle_s
	joinOps   int64                  // eval.oracle_join_ops
}

// generateEngine builds the inputs of an engine workload from the seed.
func generateEngine(sz sizing, workload string, seed int64) (*engineInput, error) {
	in := &engineInput{workload: workload, seed: seed}
	switch workload {
	case "join_window":
		in.src, in.grid, in.scheme, in.window, in.skew = joinSrc, sz.joinGrid, snlog.Perpendicular, sz.window, maxSkew
		in.check = []string{"out/2"}
		if err := in.joinStream(sz.windowPairs, false); err != nil {
			return nil, err
		}
	case "join_churn":
		in.src, in.grid, in.scheme, in.skew = joinSrc, sz.joinGrid, snlog.Perpendicular, maxSkew
		in.check = []string{"out/2"}
		if err := in.joinStream(sz.churnPairs, true); err != nil {
			return nil, err
		}
	case "spt_recursive":
		in.src, in.grid = logicJSrc, sz.sptGrid
		in.check = []string{"j/2", "jp/2"}
		in.adjacency()
	default:
		return nil, fmt.Errorf("bench: %q is not an engine workload", workload)
	}
	return in, nil
}

// joinStream generates k ra/rb pairs at seeded random nodes; pair i and
// pair i+k/2 share a join key. With churn, every even ra tuple is
// deleted at its source node churnLag ticks after insertion.
func (in *engineInput) joinStream(k int, churn bool) error {
	r := rand.New(rand.NewSource(in.seed))
	nodes := in.grid * in.grid
	for i := 0; i < k; i++ {
		key := int64(i % (k / 2))
		at := int64(i * pairGap)
		na, nb := r.Intn(nodes), r.Intn(nodes)
		ra := snlog.NewTuple("ra", snlog.Int(int64(i)), snlog.Int(key))
		rb := snlog.NewTuple("rb", snlog.Int(key), snlog.Int(int64(i)))
		in.ops = append(in.ops, baseOp{at: at, node: na, tuple: ra}, baseOp{at: at + rbLag, node: nb, tuple: rb})
		in.survivors = append(in.survivors, rb)
		if churn && i%2 == 0 {
			in.ops = append(in.ops, baseOp{at: at + churnLag, node: na, tuple: ra, del: true})
		} else {
			in.survivors = append(in.survivors, ra)
		}
	}
	if in.window == 0 {
		return nil
	}
	// out(i, j) joins ra number i with rb number j. An update joins the
	// replicas generated less than a window before it (local clocks, so
	// up to 2*skew of slack); the stream is sized so that no pair sits
	// in that slack, which makes the expected set exact.
	gap := func(i, j int64) int64 {
		d := i*pairGap - (j*pairGap + rbLag)
		if d < 0 {
			d = -d
		}
		return d
	}
	slack := 2*in.skew + 1
	if d := gap(0, int64(k/2)); d >= in.window-slack && d <= in.window+slack {
		return fmt.Errorf("bench: %s: same-key pairs are %d ticks apart, inside the window's skew slack (%d±%d)", in.workload, d, in.window, slack)
	}
	in.keep = func(t snlog.Tuple) bool { return gap(t.Args[0].Int, t.Args[1].Int) < in.window }
	return nil
}

// adjacency injects the grid's edges, both directions of each, as
// g(nA, nB) at the source node at t=0. The seed leaves out one edge in
// 32, so that the tree, and with it every count, depends on it.
func (in *engineInput) adjacency() {
	r := rand.New(rand.NewSource(in.seed))
	m := in.grid
	edge := func(a, b int) {
		g := snlog.NewTuple("g", snlog.NodeSym(a), snlog.NodeSym(b))
		in.ops = append(in.ops, baseOp{node: a, tuple: g})
		in.survivors = append(in.survivors, g)
	}
	for q := 0; q < m; q++ {
		for p := 0; p < m; p++ {
			id := snlog.GridID(m, p, q)
			for _, d := range [][2]int{{1, 0}, {0, 1}} {
				np, nq := p+d[0], q+d[1]
				if np >= m || nq >= m || r.Intn(32) == 0 {
					continue
				}
				edge(id, snlog.GridID(m, np, nq))
				edge(snlog.GridID(m, np, nq), id)
			}
		}
	}
}

// oracle computes the expected derived set with the centralized
// reference evaluator over the surviving base facts.
func (in *engineInput) oracle() error {
	t0 := time.Now()
	prog, err := parser.Parse(in.src)
	if err != nil {
		return err
	}
	ev, err := eval.New(prog, eval.Options{})
	if err != nil {
		return err
	}
	db, err := ev.Run(in.survivors)
	if err != nil {
		return err
	}
	in.expect = make(map[string]snlog.Tuple)
	for _, pred := range in.check {
		for _, t := range db.Tuples(pred) {
			if in.keep == nil || in.keep(t) {
				in.expect[t.Key()] = t
			}
		}
	}
	in.oracleS, in.joinOps = time.Since(t0).Seconds(), ev.JoinOps
	if len(in.expect) == 0 {
		return fmt.Errorf("bench: %s: the oracle derived nothing", in.workload)
	}
	return nil
}

// deployment is a deployed program, reached the same way whether
// snlog.Deploy or the traced step-by-step path built it.
type deployment struct {
	eng *core.Engine
	nw  *nsim.Network
	reg *obs.Registry
}

func (in *engineInput) options() []snlog.Option {
	return []snlog.Option{
		snlog.WithScheme(in.scheme), snlog.WithSeed(in.seed),
		snlog.WithMaxSkew(in.skew), snlog.WithDefaultWindow(in.window),
	}
}

// deploy is the product path: program text in, deployed cluster out.
func (in *engineInput) deploy() (*deployment, error) {
	c, err := snlog.Deploy(snlog.Grid(in.grid), in.src, in.options()...)
	if err != nil {
		return nil, err
	}
	return &deployment{eng: c.Engine, nw: c.Network, reg: c.Registry()}, nil
}

// deployTraced performs the steps of snlog.Deploy one exported call at a
// time with a span around each. The traced run asserts that it produces
// exactly the counts of the product path, so the two cannot drift apart
// unnoticed.
func (in *engineInput) deployTraced(tr *tracer, parent int) (*deployment, error) {
	sp := tr.start(parent, "parser.Parse")
	prog, err := parser.Parse(in.src)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	// core.New analyzes again; this call only times the analysis alone.
	sp = tr.start(parent, "analysis.Analyze")
	_, err = analysis.Analyze(prog)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start(parent, "topo.Grid")
	nw := topo.Grid(in.grid, nsim.Config{Seed: in.seed, MaxSkew: nsim.Time(in.skew)})
	tr.end(sp)
	sp = tr.start(parent, "core.New")
	eng, err := core.New(nw, prog, core.Config{Scheme: in.scheme, DefaultWindow: in.window})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	nw.Observe(reg, nil)
	eng.Observe(reg, nil)
	sp = tr.start(parent, "nsim.Finalize")
	nw.Finalize()
	tr.end(sp)
	sp = tr.start(parent, "core.Start")
	eng.Start()
	tr.end(sp)
	return &deployment{eng: eng, nw: nw, reg: reg}, nil
}

// deployCosts reads the one-shot deployment steps off a trace.
func deployCosts(tr *tracer, m map[string]float64) {
	self, _ := tr.selfTimes()
	m["core.compile_ms"] = float64(self["core.New"]+self["core.Start"]) / 1e6
	m["nsim.finalize_ms"] = float64(self["topo.Grid"]+self["nsim.Finalize"]) / 1e6
}

// exactCounts are the simulated quantities that must repeat bit for bit
// for one seed: across repetitions and between traced and untraced runs.
type exactCounts struct {
	events, messages, bytes, derivations, endTick int64
}

func countsOf(s obs.Snapshot, endTick int64) exactCounts {
	return exactCounts{
		events: s.Get("nsim.events"), messages: s.Get("nsim.messages"), bytes: s.Get("nsim.bytes"),
		derivations: s.Get("core.derivations"), endTick: endTick,
	}
}

// engineRep is one repetition: deploy from source text, inject the
// generated inputs, run to quiescence, compare with the oracle.
type engineRep struct {
	deployS, injectS, runS float64
	mallocs                uint64 // during Run
	exact                  exactCounts
	snap                   obs.Snapshot
	failed                 int
	firstDiff              string
	handlers               *handlerTimes
	dep                    *deployment // kept reachable for the live-heap reading
}

func (r *engineRep) wallS() float64 { return r.deployS + r.injectS + r.runS }

func (in *engineInput) repetition(tr *tracer) (*engineRep, error) {
	rep := &engineRep{}
	root := tr.start(0, "repetition")
	t0 := time.Now()
	var dep *deployment
	var err error
	if tr == nil {
		dep, err = in.deploy()
	} else {
		sp := tr.start(root, "deploy")
		dep, err = in.deployTraced(tr, sp)
		tr.end(sp)
	}
	if err != nil {
		return nil, err
	}
	rep.deployS = time.Since(t0).Seconds()
	if tr != nil {
		rep.handlers = instrument(dep.nw)
	}

	sp := tr.start(root, "core.Inject")
	t0 = time.Now()
	for _, op := range in.ops {
		if op.del {
			err = dep.eng.InjectDeleteAt(nsim.Time(op.at), nsim.NodeID(op.node), op.tuple)
		} else {
			err = dep.eng.InjectAt(nsim.Time(op.at), nsim.NodeID(op.node), op.tuple)
		}
		if err != nil {
			return nil, fmt.Errorf("bench: %s: inject %s: %w", in.workload, op.tuple, err)
		}
	}
	rep.injectS = time.Since(t0).Seconds()
	tr.end(sp)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp = tr.start(root, "nsim.Run")
	t0 = time.Now()
	end := dep.nw.Run(0)
	rep.runS = time.Since(t0).Seconds()
	tr.end(sp)
	runtime.ReadMemStats(&after)
	rep.mallocs = after.Mallocs - before.Mallocs
	if rep.handlers != nil {
		for _, a := range rep.handlers.aggregates(sp) {
			tr.aggregate(a)
		}
	}

	sp = tr.start(root, "verify")
	rep.snap = dep.reg.Snapshot()
	rep.exact = countsOf(rep.snap, int64(end))
	in.verify(dep, rep)
	tr.end(sp)
	tr.end(root)
	rep.dep = dep
	return rep, nil
}

// verify counts every expected tuple the cluster lacks and every tuple
// it holds that the oracle does not.
func (in *engineInput) verify(dep *deployment, rep *engineRep) {
	differ := func(what string, t snlog.Tuple) {
		rep.failed++
		if rep.firstDiff == "" {
			rep.firstDiff = what + " " + t.String()
		}
	}
	got := make(map[string]bool, len(in.expect))
	for _, pred := range in.check {
		for _, t := range dep.eng.Derived(pred) {
			got[t.Key()] = true
			if _, ok := in.expect[t.Key()]; !ok {
				differ("spurious", t)
			}
		}
	}
	for k, t := range in.expect {
		if !got[k] {
			differ("missing", t)
		}
	}
}

// outcome is what a run reports: metric values by name plus the
// correctness tally.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string           // why the run is not correct; empty when it is
	extra     map[string]float64 // min/max/MAD of wall-clock metrics, for the report
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, extra: map[string]float64{}}
}

func (o *outcome) problem(format string, args ...interface{}) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) spreadOf(name string, v []float64) {
	s := sorted(v)
	o.extra[name+".min"], o.extra[name+".max"], o.extra[name+".mad"] = s[0], s[len(s)-1], mad(v)
	o.extra[name+".n"] = float64(len(v))
}

// setupEngine generates the inputs and the oracle's expected set,
// several times over, and reports the median time of one set-up.
func setupEngine(sz sizing, workload string, seed int64) (*engineInput, float64, error) {
	var in *engineInput
	var times []float64
	for i := 0; i < sz.engineSetups; i++ {
		t0 := time.Now()
		var err error
		if in, err = generateEngine(sz, workload, seed); err != nil {
			return nil, 0, err
		}
		if err = in.oracle(); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return in, median(times), nil
}

// engineTimed is the untraced run: repetitions of the product path for
// the given number of seconds after one discarded warm-up repetition.
func engineTimed(sz sizing, workload string, seed int64, seconds float64) (*outcome, error) {
	out := newOutcome()
	in, setupS, err := setupEngine(sz, workload, seed)
	if err != nil {
		return nil, err
	}
	// The first repetition pays for page faults and heap growth that no
	// later one does (measured: +50% on join_window), so it is discarded.
	if _, err := in.repetition(nil); err != nil {
		return nil, err
	}

	var reps []*engineRep
	start := time.Now()
	for len(reps) < sz.minReps || time.Since(start).Seconds() < seconds {
		runtime.GC()
		rep, err := in.repetition(nil)
		if err != nil {
			return nil, err
		}
		if len(reps) > 0 {
			reps[len(reps)-1].dep = nil
		}
		reps = append(reps, rep)
	}

	var wallUs, rate, allocs []float64
	for i, rep := range reps {
		wallUs = append(wallUs, rep.wallS()*1e6)
		rate = append(rate, ratio(float64(rep.exact.events), rep.runS))
		allocs = append(allocs, ratio(float64(rep.mallocs), float64(rep.exact.events)))
		out.attempted += int64(len(in.expect))
		out.failed += int64(rep.failed)
		if rep.failed > 0 {
			out.problem("repetition %d: %d tuples differ from the oracle, first: %s", i, rep.failed, rep.firstDiff)
		}
		if rep.exact != reps[0].exact {
			out.problem("repetition %d is not deterministic: counts %+v, repetition 0 had %+v", i, rep.exact, reps[0].exact)
		}
	}
	last := reps[len(reps)-1]
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(last.dep)

	out.metrics["setup_s"] = setupS
	out.metrics["throughput_per_s"] = median(rate)
	out.metrics["answer_p50_us"] = median(wallUs)
	out.metrics["allocs_per_op"] = median(allocs)
	out.metrics["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	out.metrics["msgs_per_derivation"] = ratio(float64(last.exact.messages), float64(last.exact.derivations))
	out.metrics["bytes_per_derivation"] = ratio(float64(last.exact.bytes), float64(last.exact.derivations))
	out.spreadOf("answer_p50_us", wallUs)
	out.spreadOf("throughput_per_s", rate)
	setCounts(out, last.snap, last.exact.endTick)
	return out, nil
}

// setCounts copies the exact simulated counts into the outcome so that
// the full report can compare them between the timed and traced passes.
func setCounts(out *outcome, s obs.Snapshot, endTick int64) {
	for _, name := range []string{
		"nsim.events", "nsim.messages", "nsim.bytes", "nsim.max_node_load",
		"core.probes", "core.joins", "core.candidates", "core.derivations", "core.deletions", "core.settles",
	} {
		out.metrics[name] = float64(s.Get(name))
	}
	out.metrics["nsim.queue_p99"] = float64(s.Get("nsim.queue_hist.p99"))
	out.metrics["nsim.quiesce_ticks"] = float64(endTick)
	out.metrics["core.derivations_per_candidate"] = ratio(float64(s.Get("core.derivations")), float64(s.Get("core.candidates")))
	out.metrics["core.candidates_per_probe"] = ratio(float64(s.Get("core.candidates")), float64(s.Get("core.probes")))
	out.metrics["window.live_tuples_max"] = float64(s.Get("core.mem.max"))
	out.metrics["window.live_tuples_p50"] = float64(s.Get("core.mem.p50"))
	hits, misses := float64(s.Get("routing.nearest_hits")), float64(s.Get("routing.nearest_misses"))
	out.metrics["routing.nearest_hit_ratio"] = ratio(hits, hits+misses)
}

// engineTraced is the traced run: one untraced repetition for
// reference, one repetition with a span around every call into a layer
// and a timing decorator on every node handler, then the layers'
// exported functions driven directly.
func engineTraced(sz sizing, workload string, seed int64, outDir string) (*outcome, error) {
	out := newOutcome()
	tr := newTracer(fmt.Sprintf("%s-seed%d", workload, seed))

	root := tr.start(0, "setup")
	sp := tr.start(root, "generate")
	in, err := generateEngine(sz, workload, seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start(root, "eval.oracle")
	err = in.oracle()
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return nil, err
	}

	if _, err := in.repetition(nil); err != nil { // warm-up, as in the timed run
		return nil, err
	}
	runtime.GC()
	plain, err := in.repetition(nil)
	if err != nil {
		return nil, err
	}
	plain.dep = nil
	runtime.GC()
	traced, err := in.repetition(tr)
	if err != nil {
		return nil, err
	}
	out.attempted = 2 * int64(len(in.expect))
	out.failed = int64(plain.failed + traced.failed)
	for _, rep := range []*engineRep{plain, traced} {
		if rep.failed > 0 {
			out.problem("%d tuples differ from the oracle, first: %s", rep.failed, rep.firstDiff)
		}
	}
	if plain.exact != traced.exact {
		out.problem("traced and untraced runs disagree: traced %+v, untraced %+v", traced.exact, plain.exact)
	}

	h := traced.handlers
	events := float64(traced.exact.events)
	loopSelf := traced.runS - h.recvBusy() - h.timerBusy()
	m := out.metrics
	setCounts(out, traced.snap, traced.exact.endTick)
	deployCosts(tr, m)
	m["core.inject_us_per_fact"] = ratio(traced.injectS*1e6, float64(len(in.ops)))
	m["nsim.run_s"] = traced.runS
	m["nsim.loop_self_s"] = loopSelf
	m["nsim.loop_self_ns_per_event"] = ratio(loopSelf*1e9, events)
	h.metrics(m)
	m["eval.oracle_s"] = in.oracleS
	m["eval.oracle_join_ops"] = float64(in.joinOps)
	m["trace.overhead_pct"] = 100 * ratio(traced.wallS()-plain.wallS(), plain.wallS())
	m["client.samples"] = 2 // repetitions behind this report

	driveFrontEnd(in.src, m)
	driveWindow(in, int(traced.snap.Get("core.mem.max")), m)
	driveRouting(in.grid, seed, m)

	share, err := tr.write(outDir, workload, seed)
	if err != nil {
		return nil, err
	}
	if share < 0.95 || share > 1.05 {
		out.problem("trace self-times add up to %.1f%% of the wall time", 100*share)
	}
	return out, nil
}
