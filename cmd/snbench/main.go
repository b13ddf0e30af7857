// Command snbench regenerates every table and figure of the paper's
// evaluation section (experiments E1..E14 of DESIGN.md) and prints them
// in the plain-text form recorded in EXPERIMENTS.md.
//
// Usage:
//
//	snbench            # run everything
//	snbench -only E5   # run one experiment
//	snbench -quick     # smaller parameters (CI-sized)
//	snbench -trace e1.jsonl             # observed E1: JSONL trace + counters
//	snbench -explain 'j(n3,3)'          # provenance: why is this tuple derived?
//	snbench -hist                       # settle/hop/fan-in/queue histograms
//
// Trace export runs the E1 two-stream workload with the observability
// layer attached, writes the (optionally filtered) event trace as
// JSONL, prints the counter snapshot, and cross-checks the trace's
// aggregated send/recv/drop counts against the registry counters —
// exiting nonzero on any disagreement.
//
// Performance numbers are not this command's job: `bash bench/run.sh`
// measures both product paths end to end and layer by layer.
//
// Explain runs the E5 logicJ shortest-path program with provenance
// capture on and prints the queried tuple's derivation tree (down to
// the injected adjacency facts) and its critical path — which chain of
// derivations it waited on, with per-edge hops and latency. Add
// -explain-dot tree.dot for a Graphviz rendering.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/datalog/parser"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/provenance"
)

func main() {
	only := flag.String("only", "", "run only this experiment (E1..E14)")
	quick := flag.Bool("quick", false, "smaller parameters for a fast pass")
	traceOut := flag.String("trace", "", "write an observed-E1 JSONL trace to this file and exit")
	traceKinds := flag.String("trace-kinds", "", "comma-separated event kinds to export (send,recv,drop,derive,delete,settle,crash,recover,linkdown,linkup,dup,reorder); empty = all")
	traceNode := flag.Int("trace-node", -1, "export only events touching this node (-1 = all)")
	tracePred := flag.String("trace-pred", "", "export only events for this predicate / wire kind")
	explain := flag.String("explain", "", "explain a derived tuple of the E5 shortest-path run, e.g. 'j(n3,3)': print its derivation tree and critical path, then exit")
	explainDOT := flag.String("explain-dot", "", "with -explain, also write the derivation DAG as Graphviz DOT to this file")
	hist := flag.Bool("hist", false, "run the observed E1 workload with provenance attached and print the latency/hop/fan-in/queue histograms, then exit")
	flag.Parse()

	if *explain != "" {
		if err := runExplain(*explain, *explainDOT, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "snbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *hist {
		if err := runHist(*quick); err != nil {
			fmt.Fprintf(os.Stderr, "snbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *traceOut != "" {
		if err := runTrace(*traceOut, *traceKinds, *traceNode, *tracePred, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "snbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	type exp struct {
		id  string
		run func() *metrics.Table
	}
	full := !*quick
	pick := func(a, b int) int {
		if full {
			return a
		}
		return b
	}
	suite := []exp{
		{"E1", func() *metrics.Table {
			if full {
				return experiments.E1JoinApproaches([]int{6, 10, 14, 18}, 20)
			}
			return experiments.E1JoinApproaches([]int{6, 10}, 10)
		}},
		{"E2", func() *metrics.Table {
			return experiments.E2LoadBalance(pick(12, 8), pick(40, 20))
		}},
		{"E3", func() *metrics.Table {
			return experiments.E3MultiStream(pick(10, 6), []int{2, 3, 4}, pick(6, 3))
		}},
		{"E4", func() *metrics.Table {
			return experiments.E4Spatial(pick(12, 8), []float64{0, 8, 4, 2}, pick(12, 6))
		}},
		{"E5", func() *metrics.Table {
			if full {
				return experiments.E5SPT([]int{5, 7, 10, 14})
			}
			return experiments.E5SPT([]int{4, 6})
		}},
		{"E6", func() *metrics.Table {
			return experiments.E6Deletions(pick(300, 100), []float64{0.1, 0.3, 0.5})
		}},
		{"E7", func() *metrics.Table {
			return experiments.E7Loss(pick(10, 6), []float64{0, 0.05, 0.1, 0.2, 0.3}, pick(20, 10))
		}},
		{"E8", func() *metrics.Table {
			if full {
				return experiments.E8Latency([]int{6, 10, 14})
			}
			return experiments.E8Latency([]int{6})
		}},
		{"E9", func() *metrics.Table {
			return experiments.E9Memory(pick(8, 6))
		}},
		{"E10", func() *metrics.Table {
			return experiments.E10Magic(pick(8, 4), pick(12, 8))
		}},
		{"E11", func() *metrics.Table {
			if full {
				return experiments.E11Aggregation([]int{6, 10, 14})
			}
			return experiments.E11Aggregation([]int{6})
		}},
		{"E12", func() *metrics.Table {
			return experiments.E12Lifetime(pick(10, 8), 400, pick(150, 60))
		}},
		{"E14", func() *metrics.Table {
			if full {
				return experiments.E14Churn([]int{0, 1, 2, 4, 8}, 6)
			}
			return experiments.E14Churn([]int{0, 2, 4}, 3)
		}},
	}

	ran := 0
	for _, e := range suite {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		start := time.Now()
		tbl := e.run()
		fmt.Printf("=== %s (%.2fs) ===\n", e.id, time.Since(start).Seconds())
		tbl.Render(os.Stdout)
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "snbench: unknown experiment %q\n", *only)
		os.Exit(1)
	}
}

// runTrace runs the observed E1 workload, exports the filtered JSONL
// trace, prints the counter snapshot, and verifies trace/counter
// agreement.
func runTrace(path, kinds string, node int, pred string, quick bool) error {
	m, tuples := 10, 20
	if quick {
		m, tuples = 6, 10
	}
	// Capacity covers every event of the full E1 run (the m=10 workload
	// records ~20k events) so the JSONL export is complete; the counter
	// cross-check below uses lifetime totals and holds at any capacity.
	res := experiments.TraceE1(m, tuples, 1<<19)
	trace := res.Trace()

	f := obs.Filter{Node: obs.AnyNode, Pred: pred}
	if node >= 0 {
		f.Node = int32(node)
	}
	if kinds != "" {
		for _, name := range strings.Split(kinds, ",") {
			k, ok := obs.ParseKind(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown trace kind %q", name)
			}
			f.Kinds = append(f.Kinds, k)
		}
	}

	out, err := os.Create(path)
	if err != nil {
		return err
	}
	written, err := trace.WriteJSONL(out, f)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	snap := res.Snapshot()
	metrics.SnapshotTable(
		fmt.Sprintf("observed E1 (grid %dx%d, %d tuples/stream)", m, m, tuples),
		snap.Counters, "nsim.", "core.", "routing.").Render(os.Stdout)
	fmt.Printf("\ntrace: %d events recorded, %d evicted, %d exported to %s\n",
		trace.Total(), trace.Dropped(), written, path)

	// The trace and the counters watch the same hooks; any disagreement
	// means a recording path was skipped or double-fired. Lifetime
	// totals survive ring eviction, so this holds even if the ring
	// wrapped.
	agg := trace.TotalKinds()
	checks := []struct {
		kind    obs.EventKind
		counter string
	}{
		{obs.EvSend, "nsim.messages"},
		{obs.EvRecv, "nsim.received"},
		{obs.EvDrop, "nsim.dropped"},
		{obs.EvDerive, "core.derivations"},
		{obs.EvDelete, "core.deletions"},
		{obs.EvSettle, "core.settles"},
	}
	for _, c := range checks {
		if agg[c.kind] != snap.Get(c.counter) {
			return fmt.Errorf("trace/counter mismatch: %d %s events vs %s=%d",
				agg[c.kind], c.kind, c.counter, snap.Get(c.counter))
		}
	}
	fmt.Println("trace/counter cross-check: send, recv, drop, derive, delete, settle all agree")
	return nil
}

// runExplain runs the provenance-enabled E5 shortest-path workload and
// explains one derived tuple, named as a ground literal ('j(n3,3)').
func runExplain(lit, dotPath string, quick bool) error {
	m := 5
	if quick {
		m = 4
	}
	r, err := parser.ParseRule(lit + ".")
	if err != nil {
		return fmt.Errorf("bad -explain literal %q (want e.g. 'j(n3,3)'): %v", lit, err)
	}
	if len(r.Body) > 0 || r.Head.Negated {
		return fmt.Errorf("bad -explain literal %q: give one positive ground literal", lit)
	}

	res := experiments.ProvE5(m)
	snap := res.Snapshot()
	fmt.Printf("E5 logicJ shortest-path tree, %dx%d grid: %d derivations captured, %d live\n\n",
		m, m, snap.Get("core.prov.captured"), snap.Get("core.prov.live"))

	tree, err := res.Engine.Explain(r.Head.PredKey(), r.Head.Args...)
	if err != nil {
		return err
	}
	fmt.Print(tree.String())

	if bl, err := res.Engine.Blame(r.Head.PredKey(), r.Head.Args...); err == nil {
		fmt.Println()
		fmt.Print(bl.String())
	}

	if dotPath != "" {
		f, err := os.Create(dotPath)
		if err != nil {
			return err
		}
		err = provenance.WriteDOT(f, tree)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("\nDOT graph written to %s\n", dotPath)
	}
	return nil
}

// runHist runs the observed E1 workload with provenance attached and
// renders the four histogram families.
func runHist(quick bool) error {
	m, tuples := 10, 20
	if quick {
		m, tuples = 6, 10
	}
	res := experiments.TraceE1Prov(m, tuples, 1)
	fmt.Printf("observed E1 (grid %dx%d, %d tuples/stream), histograms:\n\n", m, m, tuples)
	for _, name := range []string{"core.settle_ticks", "core.result_hops", "core.fanin", "nsim.queue_hist"} {
		h := res.Registry().Histogram(name, nil)
		fmt.Printf("%s: count=%d p50=%d p95=%d max=%d\n",
			name, h.Count(), h.Quantile(0.50), h.Quantile(0.95), h.Max())
		bounds, counts := h.Buckets()
		peak := int64(1)
		for _, c := range counts {
			if c > peak {
				peak = c
			}
		}
		for i, c := range counts {
			if c == 0 {
				continue
			}
			label := "overflow"
			if i < len(bounds) {
				label = fmt.Sprintf("<= %d", bounds[i])
			}
			bar := strings.Repeat("#", int(1+c*40/peak))
			fmt.Printf("  %10s  %-41s %d\n", label, bar, c)
		}
		fmt.Println()
	}
	return nil
}
