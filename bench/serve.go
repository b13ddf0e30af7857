package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	snlog "repro"
	"repro/internal/core"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/parser"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serveSrc holds two independent, identically shaped rule families:
// reach/2 over link/2 and conn/2 over edge/2. Acyclic chains keep the
// set-of-derivations store non-recursive, so the steady state has no
// fallbacks; the second family exists so that serve_churn can show
// whether a write to one invalidates cached answers of the other.
const serveSrc = `
.base link/2.
.base edge/2.
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
conn(X, Y) :- edge(X, Y).
conn(X, Z) :- conn(X, Y), edge(Y, Z).
.query reach/2.
.query conn/2.
`

// churnMaxLag is the staleness the serve_churn reader tolerates.
const churnMaxLag = 16

// traceIDBase keeps the harness's wire trace ids clear of the ones the
// session allocates for untagged queries. A harness id carries the
// goal's rule family in its lowest bit.
const traceIDBase = int64(1) << 40

type placedFact struct {
	node  int
	tuple snlog.Tuple
}

func (f placedFact) text() string { return f.tuple.String() }

// serveInput is what the served program sees (the preloaded facts, the
// goal sequences, the writer's tail facts) plus the oracle's answers.
type serveInput struct {
	workload string
	grid     int
	seed     int64
	facts    []placedFact
	goals    [2][]string     // per connection
	family   map[string]int  // goal -> 0 (reach) or 1 (conn)
	tails    [2][]placedFact // per family, one per chain: the fact the writer adds and removes
	every    int             // a request span is kept for every n-th request

	expect     map[string][]string // goal -> answer over the preloaded facts
	expectWith map[string][]string // goal -> answer with every tail fact present (serve_churn)
	oracleS    float64
	joinOps    int64
}

func chainSym(prefix string, chain, i int) snlog.Term {
	return snlog.Sym(fmt.Sprintf("%s%d_%d", prefix, chain, i))
}

func generateServe(sz sizing, workload string, seed int64) (*serveInput, error) {
	in := &serveInput{workload: workload, grid: sz.serveGrid, seed: seed, every: 1, family: map[string]int{}}
	r := rand.New(rand.NewSource(seed))
	nodes := sz.serveGrid * sz.serveGrid
	preds := [2][3]string{{"link", "s", "reach"}, {"edge", "e", "conn"}}
	for fam, p := range preds {
		for c := 0; c < sz.chains; c++ {
			for i := 0; i < sz.chainLen; i++ {
				in.facts = append(in.facts, placedFact{r.Intn(nodes), snlog.NewTuple(p[0], chainSym(p[1], c, i), chainSym(p[1], c, i+1))})
			}
			// The tails sit at fixed nodes spread over the grid: with only
			// a handful of them, seeded placement alone moved
			// msgs_per_derivation on serve_churn by several percent.
			in.tails[fam] = append(in.tails[fam], placedFact{(2*c + 1) * nodes / (2 * sz.chains),
				snlog.NewTuple(p[0], chainSym(p[1], c, sz.chainLen), chainSym(p[1], c, sz.chainLen+1))})
		}
	}
	goal := func(fam int, first, second string) string {
		g := fmt.Sprintf("%s(%s, %s)", preds[fam][2], first, second)
		in.family[g] = fam
		return g
	}
	node := func(fam, c, i int) string { return chainSym(preds[fam][1], c, i).String() }

	var all []string
	switch workload {
	case "serve_hot":
		in.every = 16
		for k := 0; k < sz.hotGoals; k++ {
			all = append(all, goal(0, node(0, k%sz.chains, k/sz.chains), "X"))
		}
		// Both connections cycle the whole set, half a cycle apart.
		in.goals[0] = all
		in.goals[1] = append(append([]string(nil), all[len(all)/2:]...), all[:len(all)/2]...)
	case "serve_cold":
		seen := map[string]bool{}
		for c := 0; c < sz.chains; c++ {
			for i := 0; i < sz.chainLen; i++ {
				all = append(all, goal(0, node(0, c, i), "X"), goal(0, "X", node(0, c, i+1)))
				for n := 0; n < sz.coldPairs; {
					a := r.Intn(sz.chainLen)
					b := a + 1 + r.Intn(sz.chainLen-a)
					if g := goal(0, node(0, c, a), node(0, c, b)); !seen[g] {
						seen[g] = true
						all = append(all, g)
						n++
					}
				}
			}
		}
		// Disjoint halves with the same mix of shapes: were both
		// connections to scan one list, the one behind would find the
		// other's answers still cached. The cache is 8 LRU shards of 32
		// entries, so the goal count is sized to overfill every shard,
		// not just their sum.
		group := 2 + sz.coldPairs
		for _, k := range r.Perm(len(all) / group) {
			in.goals[k%2] = append(in.goals[k%2], all[group*k:group*k+group]...)
		}
	case "serve_churn":
		step := sz.chainLen * sz.chains / sz.churnGoals
		if step < 1 {
			step = 1
		}
		for k := 0; k < sz.churnGoals; k++ {
			c, i := k%sz.chains, (k/sz.chains*step)%sz.chainLen
			all = append(all, goal(0, node(0, c, i), "X"), goal(1, node(1, c, i), "X"))
		}
		in.goals[1] = all // connection 0 writes
	default:
		return nil, fmt.Errorf("bench: %q is not a serve workload", workload)
	}
	return in, nil
}

// oracle answers every goal with the centralized evaluator: over the
// preloaded facts, and for serve_churn also with the tail facts present.
func (in *serveInput) oracle() error {
	t0 := time.Now()
	prog, err := parser.Parse(serveSrc)
	if err != nil {
		return err
	}
	answer := func(extra [2][]placedFact) (map[string][]string, int64, error) {
		var base []snlog.Tuple
		for _, f := range in.facts {
			base = append(base, f.tuple)
		}
		for _, fam := range extra {
			for _, f := range fam {
				base = append(base, f.tuple)
			}
		}
		ev, err := eval.New(prog, eval.Options{})
		if err != nil {
			return nil, 0, err
		}
		db, err := ev.Run(base)
		if err != nil {
			return nil, 0, err
		}
		tuples := map[string][]snlog.Tuple{}
		for _, pred := range []string{"reach/2", "conn/2"} {
			tuples[pred] = db.Tuples(pred)
		}
		out := make(map[string][]string)
		for _, goals := range in.goals {
			for _, g := range goals {
				if _, done := out[g]; done {
					continue
				}
				lit, err := core.ParseGoal(prog, g)
				if err != nil {
					return nil, 0, err
				}
				ans := []string{}
				for _, t := range core.MatchGoal(lit, tuples[lit.PredKey()]) {
					ans = append(ans, t.String())
				}
				sort.Strings(ans)
				out[g] = ans
			}
		}
		return out, ev.JoinOps, nil
	}
	if in.expect, in.joinOps, err = answer([2][]placedFact{}); err != nil {
		return err
	}
	if in.workload == "serve_churn" {
		if in.expectWith, _, err = answer(in.tails); err != nil {
			return err
		}
	}
	in.oracleS = time.Since(t0).Seconds()
	return nil
}

// legal reports whether ans is an answer the oracle allows for goal:
// the closure over the preloaded facts, or — while a tail fact may be
// in flight — the closure with the tails present.
func (in *serveInput) legal(goal string, ans []string, settled bool) bool {
	if sameAnswer(ans, in.expect[goal]) {
		return true
	}
	return !settled && in.expectWith != nil && sameAnswer(ans, in.expectWith[goal])
}

func sameAnswer(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	inOrder := true
	for i := range got {
		if got[i] != want[i] {
			inOrder = false
			break
		}
	}
	if inOrder {
		return true
	}
	s := append([]string(nil), got...)
	sort.Strings(s)
	for i := range s {
		if s[i] != want[i] {
			return false
		}
	}
	return true
}

// countingConn counts the bytes a client connection moves.
type countingConn struct {
	net.Conn
	in, out atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// rig is one served deployment with its two client connections.
type rig struct {
	in       *serveInput
	sess     *serve.Session
	srv      *serve.Server
	conns    [2]*countingConn
	clients  [2]*serve.Client
	handlers *handlerTimes
	exact    exactCounts // after the preload
	injectS  float64     // the preload's Inject calls
	warmed   int         // warm-up queries each connection made
}

// openRig is the serve workloads' set-up: deploy, preload, sync,
// listen, dial, and warm every connection up.
func openRig(ctx context.Context, sz sizing, in *serveInput, traced bool) (*rig, error) {
	spans := -1
	if traced {
		spans = 1 << 18
	}
	sess, err := serve.Open(ctx, serveSrc, snlog.Grid(in.grid), serve.Options{
		Deploy: []snlog.Option{snlog.WithSeed(in.seed)},
		Spans:  spans,
		// No deadline flusher: when a batch is applied would otherwise
		// depend on the wall clock, and with it every simulated count.
		BatchDelay: -1,
	})
	if err != nil {
		return nil, err
	}
	rg := &rig{in: in, sess: sess, warmed: sz.warmQueries}
	if traced {
		rg.handlers = instrument(sess.Cluster().Network)
	}
	if err := rg.start(ctx); err != nil {
		rg.close()
		return nil, err
	}
	return rg, nil
}

func (rg *rig) start(ctx context.Context) error {
	in := rg.in
	t0 := time.Now()
	for _, f := range in.facts {
		if err := rg.sess.Inject(f.node, f.tuple); err != nil {
			return err
		}
	}
	rg.injectS = time.Since(t0).Seconds()
	end, err := rg.sess.Sync(ctx)
	if err != nil {
		return err
	}
	rg.exact = countsOf(rg.sess.Snapshot(), end)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	rg.srv = serve.NewServer(rg.sess, ln)
	for i := range rg.clients {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		rg.conns[i] = &countingConn{Conn: conn}
		rg.clients[i] = serve.NewClient(rg.conns[i])
	}
	for i, c := range rg.clients {
		for k := 0; k < rg.warmed && len(in.goals[i]) > 0; k++ {
			if _, err := c.Query(ctx, in.goals[i][k%len(in.goals[i])]); err != nil {
				return fmt.Errorf("bench: warm-up query: %w", err)
			}
		}
	}
	return nil
}

// close stops everything the rig started and waits for it.
func (rg *rig) close() {
	for _, c := range rg.clients {
		if c != nil {
			c.Close()
		}
	}
	if rg.srv != nil {
		rg.srv.Close()
	}
	rg.sess.Close()
}

// connLoad is what one connection's closed loop observed.
type connLoad struct {
	latUs    []float64 // reads: send to decoded answer
	syncUs   []float64
	reads    int64
	writes   int64 // acknowledged inject/delete
	closing  int64 // settled queries after the closing sync
	failed   int64
	firstBad string
	lagSum   int64
}

// requests counts the round trips of the timed window.
func (l *connLoad) requests() int64 { return l.reads + l.writes + int64(len(l.syncUs)) }

func (l *connLoad) fail(format string, args ...interface{}) {
	l.failed++
	if l.firstBad == "" {
		l.firstBad = fmt.Sprintf(format, args...)
	}
}

// readLoop is a closed loop of queries over the connection's goals:
// the next request leaves when the previous answer has been decoded.
// The answer is checked after its latency has been recorded.
func (rg *rig) readLoop(ctx context.Context, i int, deadline time.Time, tr *tracer, l *connLoad) {
	in, c := rg.in, rg.clients[i]
	goals := in.goals[i]
	maxLag := int64(0)
	if in.workload == "serve_churn" {
		maxLag = churnMaxLag
	}
	root := tr.start(0, fmt.Sprintf("conn%d", i))
	defer tr.end(root)
	// Carry on where the warm-up stopped, so that the first requests do
	// not find what it just left in the cache.
	for n := rg.warmed; time.Now().Before(deadline); n++ {
		goal := goals[n%len(goals)]
		// One request shape for both runs: a tagged query with an explicit
		// staleness bound (0 is fresh). Untraced, id 0 lets the session
		// allocate the trace id.
		var id int64
		sp := 0
		if tr != nil {
			id = traceIDBase + int64(2*(2*n+i)+in.family[goal])
			if n%in.every == 0 {
				sp = tr.start(root, "Client.Query")
				tr.tag(sp, id)
			}
		}
		t0 := time.Now()
		ans, fr, _, err := c.QueryTraced(ctx, goal, maxLag, id)
		l.latUs = append(l.latUs, sinceUs(t0))
		tr.end(sp)
		l.reads++
		l.lagSum += fr.Lag
		if err != nil {
			l.fail("query %s: %v", goal, err)
		} else if !in.legal(goal, ans, false) {
			l.fail("query %s answered %v, the oracle says %v", goal, ans, in.expect[goal])
		}
	}
}

// edgeEvery sends one write cycle in this many to the conn/edge family.
// Inserting a base fact evicts every cached answer whose cone holds its
// predicate, so edge writes must be rarer than the reader's revisits of
// a conn goal for the two families' hit ratios to differ.
const edgeEvery = 64

// writeLoop alternately injects a chain's tail fact and, after a Sync,
// deletes it again. It stops only after a delete, so no tail fact
// outlives the loop.
func (rg *rig) writeLoop(ctx context.Context, i int, deadline time.Time, tr *tracer, l *connLoad) {
	in, c := rg.in, rg.clients[i]
	root := tr.start(0, fmt.Sprintf("conn%d", i))
	defer tr.end(root)
	for n := 0; time.Now().Before(deadline); n++ {
		fam := 0
		if n%edgeEvery == edgeEvery-1 {
			fam = 1
		}
		tail := in.tails[fam][n%len(in.tails[fam])]
		sp := tr.start(root, "Client.Inject")
		err := c.Inject(ctx, tail.node, tail.text())
		tr.end(sp)
		if err != nil {
			l.fail("inject %s: %v", tail.text(), err)
			continue
		}
		l.writes++
		sp = tr.start(root, "Client.Sync")
		t0 := time.Now()
		now, err := c.Sync(ctx)
		l.syncUs = append(l.syncUs, sinceUs(t0))
		tr.end(sp)
		if err != nil {
			l.fail("sync: %v", err)
			continue
		}
		sp = tr.start(root, "Client.DeleteAt")
		err = c.DeleteAt(ctx, now+1, tail.node, tail.text())
		tr.end(sp)
		if err != nil {
			l.fail("delete %s: %v", tail.text(), err)
			continue
		}
		l.writes++
	}
}

// load is one measured window on a rig.
type load struct {
	conns    [2]connLoad
	seconds  float64
	mallocs  uint64
	before   obs.Snapshot
	after    obs.Snapshot
	bytesOut int64
	bytesIn  int64
	requests int64
	endTick  int64 // virtual time of the closing sync
}

func (ld *load) reads() int64  { return ld.conns[0].reads + ld.conns[1].reads }
func (ld *load) writes() int64 { return ld.conns[0].writes + ld.conns[1].writes }
func (ld *load) latencies() []float64 {
	return sorted(append(append([]float64(nil), ld.conns[0].latUs...), ld.conns[1].latUs...))
}

// run drives both connections for the given time and then settles the
// session with a closing Sync; where writes were in flight, one fresh
// query per goal must then give exactly the oracle's answer.
func (rg *rig) run(ctx context.Context, seconds float64, tr *tracer) *load {
	ld := &load{before: rg.sess.Snapshot()}
	for i := range ld.conns {
		ld.conns[i].latUs = make([]float64, 0, 1<<16)
	}
	var out0, in0 int64
	for _, c := range rg.conns {
		out0, in0 = out0+c.out.Load(), in0+c.in.Load()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i := range rg.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if len(rg.in.goals[i]) == 0 {
				rg.writeLoop(ctx, i, deadline, tr, &ld.conns[i])
			} else {
				rg.readLoop(ctx, i, deadline, tr, &ld.conns[i])
			}
		}(i)
	}
	wg.Wait()
	ld.seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	ld.mallocs = ms1.Mallocs - ms0.Mallocs
	ld.after = rg.sess.Snapshot()
	for _, c := range rg.conns {
		ld.bytesOut, ld.bytesIn = ld.bytesOut+c.out.Load(), ld.bytesIn+c.in.Load()
	}
	ld.bytesOut, ld.bytesIn = ld.bytesOut-out0, ld.bytesIn-in0
	ld.requests = ld.conns[0].requests() + ld.conns[1].requests()

	l := &ld.conns[1]
	var err error
	if ld.endTick, err = rg.clients[0].Sync(ctx); err != nil {
		l.fail("closing sync: %v", err)
	}
	if rg.in.expectWith == nil {
		return ld
	}
	for _, g := range rg.in.goals[1] {
		ans, err := rg.clients[1].Query(ctx, g)
		l.closing++
		if err != nil {
			l.fail("closing query %s: %v", g, err)
		} else if !rg.in.legal(g, ans, true) {
			l.fail("after the closing sync %s answered %v, the oracle says %v", g, ans, rg.in.expect[g])
		}
	}
	return ld
}

func (ld *load) tally(out *outcome) {
	for i := range ld.conns {
		l := &ld.conns[i]
		out.attempted += l.requests() + l.closing
		out.failed += l.failed
		if l.failed > 0 {
			out.problem("connection %d: %d operations failed, first: %s", i, l.failed, l.firstBad)
		}
	}
}

// setupServe builds the inputs, the oracle's answers and a warmed-up
// rig, several times over, keeps the last rig and reports the median
// time of one set-up.
func setupServe(ctx context.Context, sz sizing, workload string, seed int64, out *outcome) (*rig, float64, error) {
	var rg *rig
	var times []float64
	for i := 0; i < sz.serveSetups; i++ {
		if rg != nil {
			rg.close()
		}
		t0 := time.Now()
		in, err := generateServe(sz, workload, seed)
		if err != nil {
			return nil, 0, err
		}
		if err := in.oracle(); err != nil {
			return nil, 0, err
		}
		prev := rg
		if rg, err = openRig(ctx, sz, in, false); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if prev != nil && prev.exact != rg.exact {
			out.problem("set-up %d is not deterministic: counts %+v, before %+v", i, rg.exact, prev.exact)
		}
	}
	return rg, median(times), nil
}

// serveTimed is the untraced run: one long closed-loop window on a
// session opened without span capture.
func serveTimed(sz sizing, workload string, seed int64, seconds float64) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds+120)*time.Second)
	defer cancel()
	out := newOutcome()
	rg, setupS, err := setupServe(ctx, sz, workload, seed, out)
	if err != nil {
		return nil, err
	}
	defer rg.close()
	// Live heap of the loaded, warmed-up session at rest. Read after the
	// window it would grow with the number of writes serve_churn got
	// through, and so follow the throughput.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ld := rg.run(ctx, seconds, nil)
	ld.tally(out)

	lat := ld.latencies()
	ops := float64(ld.reads() + ld.writes())

	m := out.metrics
	m["setup_s"] = setupS
	m["throughput_per_s"] = ops / ld.seconds
	m["answer_p50_us"] = percentile(lat, 50)
	m["allocs_per_op"] = ratio(float64(ld.mallocs), ops)
	m["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	m["msgs_per_derivation"] = ratio(float64(ld.after.Get("nsim.messages")), float64(ld.after.Get("core.derivations")))
	m["bytes_per_derivation"] = ratio(float64(ld.after.Get("nsim.bytes")), float64(ld.after.Get("core.derivations")))
	out.spreadOf("answer_p50_us", lat)
	loadMetrics(out, ld, lat)
	return out, nil
}

// loadMetrics fills the per-layer metrics that one measured window
// yields by itself: client-side rates and the session's counters.
func loadMetrics(out *outcome, ld *load, lat []float64) {
	m := out.metrics
	d := ld.after.Diff(ld.before)
	m["client.samples"] = float64(len(lat))
	m["client.query_p90_us"] = percentile(lat, 90)
	m["client.query_p99_us"] = percentile(lat, 99)
	m["client.query_p999_us"] = percentile(lat, 99.9)
	m["client.reads_per_s"] = float64(ld.reads()) / ld.seconds
	m["client.write_acks_per_s"] = float64(ld.writes()) / ld.seconds
	hits, misses := float64(d.Get("serve.cache.hits")), float64(d.Get("serve.cache.misses"))
	m["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["serve.cache_evictions"] = float64(d.Get("serve.cache.evictions"))
	m["serve.fallbacks"] = float64(d.Get("serve.fallbacks"))
	m["serve.read_concurrency_peak"] = float64(ld.after.Get("serve.read_concurrency.peak"))
	m["serve.batch_flushes"] = float64(d.Get("serve.batch.flushes"))
	m["serve.batch_mean_size"] = ratio(float64(d.Get("serve.batch.size.sum")), float64(d.Get("serve.batch.size.count")))
	m["serve.batch_elided"] = float64(d.Get("serve.batch.elided"))
	m["serve.stale_served"] = float64(d.Get("serve.stale.served"))
	m["serve.mean_lag"] = ratio(float64(ld.conns[0].lagSum+ld.conns[1].lagSum), float64(len(lat)))
	m["serve.sync_us_p50"] = median(append(append([]float64(nil), ld.conns[0].syncUs...), ld.conns[1].syncUs...))
	m["wire.bytes_per_request"] = ratio(float64(ld.bytesOut), float64(ld.requests))
	m["wire.bytes_per_response"] = ratio(float64(ld.bytesIn), float64(ld.requests))
	setCounts(out, ld.after, ld.endTick)
}

// sessionQueryUs sends each connection's goal sequence through
// Session.Query in-process, one goroutine per connection as on the
// wire — the same work and the same concurrency without the wire.
func (rg *rig) sessionQueryUs(ctx context.Context, budget time.Duration) (float64, error) {
	var mu sync.Mutex
	var all []float64
	var firstErr error
	var wg sync.WaitGroup
	for _, goals := range rg.in.goals {
		if len(goals) == 0 {
			continue
		}
		wg.Add(1)
		go func(goals []string) {
			defer wg.Done()
			var us []float64
			var err error
			for start := time.Now(); err == nil && time.Since(start) < budget; {
				t0 := time.Now()
				_, err = rg.sess.Query(ctx, goals[(rg.warmed+len(us))%len(goals)])
				us = append(us, sinceUs(t0))
			}
			mu.Lock()
			all = append(all, us...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(goals)
	}
	wg.Wait()
	return median(all), firstErr
}

func (rg *rig) pingUs(ctx context.Context, n int) (float64, error) {
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := rg.clients[0].Ping(ctx); err != nil {
			return 0, err
		}
		us = append(us, sinceUs(t0))
	}
	return median(us), nil
}

// stageMetrics reads the session's own span ring: the mean time of each
// query stage, the cache hit ratio of each rule family (the trace id's
// lowest bit names the family), and — for the request spans the tracer
// kept — the server-side stages as child spans, centred in the
// client-observed interval because the two clocks share no origin.
func (rg *rig) stageMetrics(tr *tracer, m map[string]float64) {
	type acc struct{ sum, n float64 }
	stages := map[string]*acc{}
	var hit, probe [2]float64
	byTrace := map[int64][]obs.Span{}
	for _, sp := range rg.sess.Spans().Spans() {
		a := stages[sp.Stage]
		if a == nil {
			a = &acc{}
			stages[sp.Stage] = a
		}
		a.sum += float64(sp.DurUs)
		a.n++
		if sp.Stage == "cache_probe" && sp.Trace >= traceIDBase {
			fam := sp.Trace & 1
			probe[fam]++
			if sp.Note == "hit" {
				hit[fam]++
			}
		}
		if _, kept := tr.tags[sp.Trace]; kept {
			byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
		}
	}
	for _, st := range []string{"parse", "cache_probe", "magic_rewrite", "eval", "respond"} {
		if a := stages[st]; a != nil {
			m["serve.span."+st+"_us"] = a.sum / a.n
		}
	}
	m["serve.reach_hit_ratio"] = ratio(hit[0], probe[0])
	m["serve.conn_hit_ratio"] = ratio(hit[1], probe[1])
	for id, sps := range byTrace {
		parent := tr.tags[id]
		var serverNs int64
		for _, sp := range sps {
			serverNs += sp.DurUs * 1e3
		}
		p := tr.spans[parent-1]
		offset := p.StartNs + (p.EndNs-p.StartNs-serverNs)/2
		for _, sp := range sps {
			tr.child(parent, "serve."+sp.Stage, offset+sp.StartUs*1e3, sp.DurUs*1e3)
		}
	}
}

// serveTraced is the traced run: half the time on a session without
// span capture (the reference, and the source of every count), half on
// one with span capture and a span around every request.
func serveTraced(sz sizing, workload string, seed int64, seconds float64, outDir string) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds+120)*time.Second)
	defer cancel()
	out := newOutcome()
	m := out.metrics
	tr := newTracer(fmt.Sprintf("%s-seed%d", workload, seed))

	root := tr.start(0, "setup")
	sp := tr.start(root, "generate")
	in, err := generateServe(sz, workload, seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start(root, "eval.oracle")
	err = in.oracle()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start(root, "serve.Open+preload+dial+warm-up")
	plain, err := openRig(ctx, sz, in, false)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	ldA := plain.run(ctx, seconds/2, nil)
	ldA.tally(out)
	latA := ldA.latencies()
	loadMetrics(out, ldA, latA)
	sessionUs, err := plain.sessionQueryUs(ctx, time.Duration(seconds/10*float64(time.Second)))
	if err == nil {
		m["wire.ping_rtt_us_p50"], err = plain.pingUs(ctx, 1000)
	}
	m["core.inject_us_per_fact"] = ratio(plain.injectS*1e6, float64(len(in.facts)))
	plain.close()
	if err != nil {
		return nil, err
	}
	m["serve.session_query_us_p50"] = sessionUs
	m["wire.overhead_us_p50"] = percentile(latA, 50) - sessionUs

	traced, err := openRig(ctx, sz, in, true)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	if traced.exact != plain.exact {
		out.problem("traced and untraced set-ups disagree: traced %+v, untraced %+v", traced.exact, plain.exact)
	}
	runtime.GC()
	ldB := traced.run(ctx, seconds/2, tr)
	ldB.tally(out)
	traced.stageMetrics(tr, m)
	traced.handlers.metrics(m)
	rateA := float64(ldA.reads()+ldA.writes()) / ldA.seconds
	rateB := float64(ldB.reads()+ldB.writes()) / ldB.seconds
	m["trace.overhead_pct"] = 100 * ratio(rateA-rateB, rateA)
	m["eval.oracle_s"] = in.oracleS
	m["eval.oracle_join_ops"] = float64(in.joinOps)

	driveFrontEnd(serveSrc, m)
	scratch := newTracer("deploy-costs")
	if _, err := (&engineInput{src: serveSrc, grid: in.grid, seed: seed}).deployTraced(scratch, scratch.start(0, "deploy")); err != nil {
		return nil, err
	}
	deployCosts(scratch, m)
	driveRouting(in.grid, seed, m)
	bf, fb := in.facts[0].tuple.Args[0].String(), in.facts[0].tuple.Args[1].String()
	driveMagic(serveSrc, map[string]string{
		"bf": fmt.Sprintf("reach(%s, X)", bf),
		"fb": fmt.Sprintf("reach(X, %s)", fb),
		"bb": fmt.Sprintf("reach(%s, %s)", bf, fb),
	}, m)
	driveWire(in.facts[0].text(), m)

	share, err := tr.write(outDir, workload, seed)
	if err != nil {
		return nil, err
	}
	if share < 0.95 || share > 1.05 {
		out.problem("trace self-times add up to %.1f%% of the wall time", 100*share)
	}
	return out, nil
}
