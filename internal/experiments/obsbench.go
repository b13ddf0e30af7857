package experiments

import snlog "repro"

// TraceE1 runs the E1 two-stream Perpendicular workload on an m×m grid
// — the same program, seeds, and injection schedule as
// E1JoinApproaches' PA row — deployed through snlog.Deploy with a trace
// ring of the given capacity attached from deployment on. snbench
// -trace exports the trace and cross-checks its aggregated counts
// against the cluster's registry (the two are recorded by the same
// hot-path hooks, so they must agree exactly).
func TraceE1(m, tuplesPerStream, traceCap int) *snlog.Cluster {
	return traceE1(m, tuplesPerStream, snlog.WithTrace(traceCap))
}

// TraceE1Prov is TraceE1 with provenance attached too, so hop stamping
// runs and all histogram families (including core.result_hops) fill —
// the workload behind snbench -hist.
func TraceE1Prov(m, tuplesPerStream, traceCap int) *snlog.Cluster {
	return traceE1(m, tuplesPerStream, snlog.WithTrace(traceCap), snlog.WithProvenance())
}

func traceE1(m, tuplesPerStream int, opts ...snlog.Option) *snlog.Cluster {
	c := mustDeploy(m, twoStreamSrc, append(opts, snlog.WithSeed(11), snlog.WithScheme(snlog.Perpendicular))...)
	injectJoinWorkload(c.Engine, c.Network, 2*tuplesPerStream, 17)
	c.Run()
	return c
}

// ProvE5 mirrors E5SPT's logicJ row (same program, seed, and adjacency
// injection) deployed through snlog.Deploy with provenance attached —
// the workload behind snbench -explain: every j/jp derivation is
// captured, so Explain/Blame answer for any tree tuple.
func ProvE5(m int) *snlog.Cluster {
	c := mustDeploy(m, logicJSrc, snlog.WithSeed(41), snlog.WithProvenance())
	injectAdjacency(c.Engine)
	c.Run()
	return c
}

func mustDeploy(m int, src string, opts ...snlog.Option) *snlog.Cluster {
	c, err := snlog.Deploy(snlog.Grid(m), src, opts...)
	if err != nil {
		panic(err)
	}
	return c
}
