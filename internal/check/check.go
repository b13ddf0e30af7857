package check

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	snlog "repro"
	"repro/internal/core"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/parser"
	"repro/internal/fault"
	"repro/internal/nsim"
	"repro/internal/obs"
)

// Config parameterizes one differential run. Everything random —
// program, workload, fault schedule, network timing — derives from
// Seed, so a Config value identifies the run completely and replays
// byte-identically.
type Config struct {
	Seed int64
	// GridM is the grid side (default 6: 36 nodes).
	GridM int
	// Ops is the workload length (default 22 interleaved ops).
	Ops int
	// MaxRepair bounds the replay-and-recheck rounds after the first
	// failed comparison (default 4).
	MaxRepair int
	// Churn scales the fault schedule: Churn crash windows, 2·Churn
	// link-churn windows, plus one partition and duplication/reordering
	// windows whenever Churn > 0. Zero runs fault-free.
	Churn int
	// TraceCap, when positive, attaches an obs trace ring of that
	// capacity (Result.Trace) — the determinism test compares its
	// serialized bytes across runs.
	TraceCap int
}

// Result reports one differential run.
type Result struct {
	Program   string
	Converged bool
	// Rounds is how many repair passes ran before convergence (0 =
	// the faulted run already matched the oracle).
	Rounds   int
	Mismatch string // last diff when not converged
	// PartitionDeletes counts base deletions issued while the
	// partition was open (the harness forces at least one when a
	// partition is scheduled and a live tuple exists).
	PartitionDeletes int
	Messages         int64 // total frames sent, including repair traffic
	RepairMessages   int64 // frames sent by the repair rounds alone
	Faults           fault.Counts
	Trace            *obs.Trace
	// Engine is the engine the run drove, at the quiescent state the run
	// ended in, for checks of its own state (it can be replayed further).
	Engine *core.Engine
	// ExplainDump, set on the first failed comparison (before any
	// repair round rewrites history), renders both sides' view of the
	// first divergent tuple: the engine's distributed provenance tree
	// and the oracle's centralized proof tree over the surviving base
	// facts. Empty when the run matched on the first try.
	ExplainDump string
}

// Run executes one differential check: generate a program and a
// timeline of insertions and deletions from the seed, execute them on
// a simulated grid under the seed's fault schedule, run the network
// dry, and compare the engine's derived state against the centralized
// oracle over the surviving base facts — repairing with Engine.Replay
// (which re-launches each node's own base generations, read off its
// replica store) and re-checking up to MaxRepair times.
func Run(cfg Config) (*Result, error) {
	if cfg.GridM == 0 {
		cfg.GridM = 6
	}
	if cfg.Ops == 0 {
		cfg.Ops = 22
	}
	if cfg.MaxRepair == 0 {
		cfg.MaxRepair = 4
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	g := Generate(r)
	if _, err := parser.Parse(g.Src); err != nil {
		return nil, fmt.Errorf("check: generated program does not parse: %v\n%s", err, g.Src)
	}
	// Provenance is always on for differential runs: when the engine
	// and oracle disagree, the dump below explains the divergent tuple
	// from both sides, which is the whole point of the harness.
	c, err := snlog.Deploy(snlog.Grid(cfg.GridM), g.Src,
		snlog.WithSeed(cfg.Seed), snlog.WithMaxSkew(4), snlog.WithScheme(snlog.Perpendicular),
		snlog.WithTrace(cfg.TraceCap), snlog.WithProvenance())
	if err != nil {
		return nil, fmt.Errorf("check: generated program does not compile: %v\n%s", err, g.Src)
	}
	nw, e := c.Network, c.Engine
	res := &Result{Program: g.Src, Engine: e, Trace: c.Trace()}
	// Watched from the start, a core.View fed the ResultLog is the derived set.
	for _, pred := range e.Analysis().Program.DerivedPredicates() {
		e.Watch(pred)
	}

	// Op times first: the fault schedule is laid over the middle half
	// of the timeline, so the early ops seed state that the faults then
	// disrupt and the late ops land while faults are active.
	times := make([]nsim.Time, cfg.Ops)
	at := nsim.Time(0)
	for i := range times {
		at += nsim.Time(60 + r.Intn(300))
		times[i] = at
	}
	from, to := times[cfg.Ops/4], times[(3*cfg.Ops)/4]
	sched, pFrom, pTo := buildSchedule(r, nw, cfg.Churn, from, to)
	in := fault.Attach(nw, sched, cfg.Seed*0x9E3779B9+1)
	in.Observe(c.Registry())

	// Interleaved workload. Deletions only target live tuples at their
	// origin node (the paper's model: deletion happens at the source);
	// the first op falling inside the partition window is forced to be
	// a deletion so the hardest case — retraction traffic that cannot
	// cross the cut — is always exercised.
	live := map[string]eval.Tuple{}
	origin := map[string]nsim.NodeID{}
	forced := false
	for i := 0; i < cfg.Ops; i++ {
		opAt := times[i]
		inPart := pTo > pFrom && opAt >= pFrom && opAt < pTo
		del := len(live) > 0 && (r.Intn(100) < 30 || (inPart && !forced))
		if del {
			keys := make([]string, 0, len(live))
			for k := range live {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			k := keys[r.Intn(len(keys))]
			if err := e.InjectDeleteAt(opAt, origin[k], live[k]); err != nil {
				return nil, err
			}
			delete(live, k)
			if inPart {
				forced = true
				res.PartitionDeletes++
			}
			continue
		}
		tup := g.RandomBase(r)
		if _, dup := live[tup.Key()]; dup {
			continue
		}
		node := nsim.NodeID(r.Intn(nw.Len()))
		live[tup.Key()] = tup
		origin[tup.Key()] = node
		if err := e.InjectAt(opAt, node, tup); err != nil {
			return nil, err
		}
	}

	nw.Run(0)
	res.Faults = in.Counts

	base := make([]eval.Tuple, 0, len(live))
	bkeys := make([]string, 0, len(live))
	for k := range live {
		bkeys = append(bkeys, k)
	}
	sort.Strings(bkeys)
	for _, k := range bkeys {
		base = append(base, live[k])
	}
	want, err := oracle(g.Src, base)
	if err != nil {
		return nil, err
	}

	preRepair := nw.TotalSent
	res.Mismatch = diff(g.Deriveds, want, e)
	if res.Mismatch != "" {
		res.ExplainDump = explainDump(g.Src, base, g.Deriveds, want, e)
	}
	for res.Mismatch != "" && res.Rounds < cfg.MaxRepair {
		res.Rounds++
		e.Replay()
		nw.Run(0)
		res.Mismatch = diff(g.Deriveds, want, e)
	}
	res.Converged = res.Mismatch == ""
	res.Messages = nw.TotalSent
	res.RepairMessages = nw.TotalSent - preRepair
	res.Faults = in.Counts
	return res, nil
}

// buildSchedule lays churn-many crash windows, 2·churn link-churn
// windows, one partition and duplication/reordering windows over
// [from, to). It returns the partition bounds (zero when churn == 0)
// so the workload can target it.
func buildSchedule(r *rand.Rand, nw *nsim.Network, churn int, from, to nsim.Time) (*fault.Schedule, nsim.Time, nsim.Time) {
	s := fault.NewSchedule()
	if churn <= 0 || to <= from {
		return s, 0, 0
	}
	span := int64(to - from)
	win := func() (nsim.Time, nsim.Time) {
		a := from + nsim.Time(r.Int63n(span))
		b := a + nsim.Time(100+r.Int63n(span/2+1))
		if b > to {
			b = to
		}
		return a, b
	}
	for i := 0; i < churn; i++ {
		a, b := win()
		s.CrashWindow(a, b, nsim.NodeID(r.Intn(nw.Len())))
	}
	for i := 0; i < 2*churn; i++ {
		a, b := win()
		n := nw.Node(nsim.NodeID(r.Intn(nw.Len())))
		nbrs := n.Neighbors()
		if len(nbrs) == 0 {
			continue
		}
		s.LinkDown(a, b, n.ID, nbrs[r.Intn(len(nbrs))])
	}
	// Partition: cut the grid on a vertical line through the middle
	// third, for the middle of the fault window.
	minX, maxX := 1e18, -1e18
	for _, n := range nw.Nodes() {
		if n.X < minX {
			minX = n.X
		}
		if n.X > maxX {
			maxX = n.X
		}
	}
	cut := minX + (maxX-minX)*(0.35+0.3*r.Float64())
	var group []nsim.NodeID
	for _, n := range nw.Nodes() {
		if n.X < cut {
			group = append(group, n.ID)
		}
	}
	pFrom := from + nsim.Time(r.Int63n(span/4+1))
	pTo := pFrom + nsim.Time(span/3+1)
	if pTo > to {
		pTo = to
	}
	s.Partition(pFrom, pTo, group...)
	s.Duplicate(from, to, 0.2)
	s.Reorder(from, to, 0.15, 5)
	return s, pFrom, pTo
}

// oracle evaluates the program over the surviving base facts with the
// centralized semi-naive evaluator.
func oracle(src string, base []eval.Tuple) (*eval.Database, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	ev, err := eval.New(prog, eval.Options{})
	if err != nil {
		return nil, err
	}
	return ev.Run(base)
}

// diff compares the engine's derived state against the oracle database
// per derived predicate; it returns "" on equality, else names the first
// tuple (in the deriveds' declaration order, then key order) present on
// exactly one side.
func diff(preds []string, want *eval.Database, e *core.Engine) string {
	if tup, side, ok := firstDivergent(preds, want, e); ok {
		return fmt.Sprintf("%s: %s", tup.Key(), side)
	}
	return ""
}

// firstDivergent finds the tuple diff names, and which side has it.
func firstDivergent(preds []string, want *eval.Database, e *core.Engine) (eval.Tuple, string, bool) {
	for _, pred := range preds {
		w, g := want.Tuples(pred), e.Derived(pred)
		wk := make(map[string]bool, len(w))
		for _, t := range w {
			wk[t.Key()] = true
		}
		gk := make(map[string]bool, len(g))
		for _, t := range g {
			gk[t.Key()] = true
		}
		for _, t := range g {
			if !wk[t.Key()] {
				return t, "the engine derives it, the oracle does not", true
			}
		}
		for _, t := range w {
			if !gk[t.Key()] {
				return t, "the oracle derives it, the engine does not", true
			}
		}
	}
	return eval.Tuple{}, "", false
}

// explainDump renders both sides' explanation of the first divergent
// tuple — the engine's provenance tree (or the reason it has none) and
// the oracle's proof tree over the surviving base facts — so a
// divergence report shows *why* each side believes what it believes,
// not just that they disagree.
func explainDump(src string, base []eval.Tuple, preds []string, want *eval.Database, e *core.Engine) string {
	tup, side, ok := firstDivergent(preds, want, e)
	if !ok {
		return "" // the sides agree: nothing to explain
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first divergent tuple: %s (%s)\n", tup.Key(), side)
	b.WriteString("--- engine (distributed provenance) ---\n")
	if tree, err := e.Explain(tup.Pred, tup.Args...); err != nil {
		fmt.Fprintf(&b, "%v\n", err)
	} else {
		b.WriteString(tree.String())
	}
	b.WriteString("--- oracle (centralized proof tree) ---\n")
	b.WriteString(oracleProof(src, base, tup))
	return b.String()
}

// oracleProof rebuilds the oracle state with a SetOfDerivations
// maintainer (the Run oracle uses plain semi-naive evaluation, which
// keeps no witness structure) by folding Insert over the surviving base
// facts, and unfolds the tuple's proof tree. It runs only on a failing
// sweep.
func oracleProof(src string, base []eval.Tuple, tup eval.Tuple) string {
	prog, err := parser.Parse(src)
	if err != nil {
		return fmt.Sprintf("oracle parse: %v\n", err)
	}
	m, err := eval.NewMaintainer(prog, eval.SetOfDerivations, eval.Options{})
	if err != nil {
		return fmt.Sprintf("oracle maintainer: %v\n", err)
	}
	for _, t := range base {
		if _, err := m.Insert(t); err != nil {
			return fmt.Sprintf("oracle insert: %v\n", err)
		}
	}
	pt, err := m.ProofTree(tup)
	if err != nil {
		return fmt.Sprintf("%v\n", err)
	}
	return pt.String()
}
