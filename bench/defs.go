package main

// This file is the benchmark's schema: the workloads and the metrics it
// emits. BENCHMARK.json at the repository root is generated from these
// tables (`-schema`), and smoke_test.go fails when the two disagree.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

var workloads = []workloadDef{
	{"join_window", "sustained two-stream sliding-window join on a 64x64 grid: window expiry, the event loop and routing do the work, eval almost none"},
	{"join_churn", "same join, unbounded window, half the ra tuples deleted: deletion stamps and retraction replace expiry, so insert-vs-delete trade-offs show"},
	{"spt_recursive", "recursive shortest-path tree with arithmetic and negation on an 80x80 grid: 1-hop routing, no expiry; join engine, unify and allocation dominate"},
	{"serve_hot", "2 closed-loop TCP clients cycle 32 goals that fit the result cache: wire codec, connection pump, read lock and cache probe; no rewrite or eval"},
	{"serve_cold", "2 closed-loop TCP clients cycle 640 distinct goals, overfilling every cache shard: magic rewrite and per-query eval dominate, the wire is noise"},
	{"serve_churn", "one connection writes and deletes tail facts while the other reads with bounded staleness: batch flush, write lock, cone invalidation"},
}

// endToEnd is what a user of either product path sees. Every metric is
// defined on all six workloads (the contract prints each on every run):
// for the engine workloads an "operation" is a simulated event and an
// "answer" is the quiesced derived set of one deployment from source
// text; for the serve workloads an operation is a completed client
// request and an answer is its decoded reply. The wall-clock bounds are
// the widest the contract allows: on the shared 2-core box this was
// sized on, the join workloads' medians drift by ~10% between runs of
// one binary in a quiet hour and far more in a loud one (README.md, "Acceptance runs").
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"throughput_per_s", "1/s", higher, 0.25},
	{"answer_p50_us", "us", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.10},
	{"live_heap_mb", "MB", lower, 0.10},
	{"msgs_per_derivation", "count", lower, 0.05},
	{"bytes_per_derivation", "B", lower, 0.05},
}

// perLayer names the layer that moved. Counts come from the cluster's
// and the session's own Snapshot; times come from the traced run and
// from driving a layer's exported functions directly. A metric that
// does not exist on a workload (serve.* on an engine workload) is 0.
var perLayer = []metricDef{
	// Front end and deployment.
	{"parser.parse_us", "us", lower, 0},
	{"analysis.analyze_us", "us", lower, 0},
	{"core.compile_ms", "ms", lower, 0},
	{"nsim.finalize_ms", "ms", lower, 0},
	{"core.inject_us_per_fact", "us", lower, 0},
	// Simulator event loop.
	{"nsim.run_s", "s", lower, 0},
	{"nsim.events", "count", lower, 0},
	{"nsim.loop_self_s", "s", lower, 0},
	{"nsim.loop_self_ns_per_event", "ns", lower, 0},
	{"nsim.messages", "count", lower, 0},
	{"nsim.bytes", "B", lower, 0},
	{"nsim.queue_p99", "count", lower, 0},
	{"nsim.max_node_load", "count", lower, 0},
	{"nsim.quiesce_ticks", "ticks", lower, 0},
	// Node runtime.
	{"core.handler_busy_s", "s", lower, 0},
	{"core.store_busy_s", "s", lower, 0},
	{"core.join_busy_s", "s", lower, 0},
	{"core.result_busy_s", "s", lower, 0},
	{"core.timer_busy_s", "s", lower, 0},
	{"core.probes", "count", lower, 0},
	{"core.joins", "count", lower, 0},
	{"core.candidates", "count", lower, 0},
	{"core.derivations", "count", lower, 0},
	{"core.deletions", "count", lower, 0},
	{"core.settles", "count", lower, 0},
	{"core.derivations_per_candidate", "ratio", higher, 0},
	{"core.candidates_per_probe", "ratio", higher, 0},
	// Window store.
	{"window.live_tuples_max", "count", lower, 0},
	{"window.live_tuples_p50", "count", lower, 0},
	{"window.insert_ns", "ns", lower, 0},
	{"window.match_ns", "ns", lower, 0},
	{"window.expire_ns", "ns", lower, 0},
	{"window.mark_deleted_ns", "ns", lower, 0},
	// Routing.
	{"routing.nearest_hit_ratio", "ratio", higher, 0},
	{"routing.next_hop_ns", "ns", lower, 0},
	// Centralized evaluator (the oracle, and serve_cold's engine).
	{"eval.oracle_s", "s", lower, 0},
	{"eval.oracle_join_ops", "count", lower, 0},
	{"magic.rewrite_bf_us", "us", lower, 0},
	{"magic.rewrite_fb_us", "us", lower, 0},
	{"magic.rewrite_bb_us", "us", lower, 0},
	// Serving session.
	{"serve.session_query_us_p50", "us", lower, 0},
	{"serve.cache_hit_ratio", "ratio", higher, 0},
	{"serve.cache_evictions", "count", lower, 0},
	{"serve.fallbacks", "count", lower, 0},
	{"serve.read_concurrency_peak", "count", higher, 0},
	{"serve.span.parse_us", "us", lower, 0},
	{"serve.span.cache_probe_us", "us", lower, 0},
	{"serve.span.magic_rewrite_us", "us", lower, 0},
	{"serve.span.eval_us", "us", lower, 0},
	{"serve.span.respond_us", "us", lower, 0},
	{"serve.batch_flushes", "count", lower, 0},
	{"serve.batch_mean_size", "count", higher, 0},
	{"serve.batch_elided", "count", higher, 0},
	{"serve.stale_served", "count", lower, 0},
	{"serve.mean_lag", "count", lower, 0},
	{"serve.sync_us_p50", "us", lower, 0},
	{"serve.reach_hit_ratio", "ratio", higher, 0},
	{"serve.conn_hit_ratio", "ratio", higher, 0},
	// Wire.
	{"wire.ping_rtt_us_p50", "us", lower, 0},
	{"wire.overhead_us_p50", "us", lower, 0},
	{"wire.bytes_per_request", "B", lower, 0},
	{"wire.bytes_per_response", "B", lower, 0},
	{"wire.fact_parse_ns", "ns", lower, 0},
	// Load generator and tracer diagnostics; never gated.
	{"client.samples", "count", higher, 0},
	{"client.query_p90_us", "us", lower, 0},
	{"client.query_p99_us", "us", lower, 0},
	{"client.query_p999_us", "us", lower, 0},
	{"client.reads_per_s", "1/s", higher, 0},
	{"client.write_acks_per_s", "1/s", higher, 0},
	{"trace.overhead_pct", "%", lower, 0},
}

func isEngine(workload string) bool {
	return workload == "join_window" || workload == "join_churn" || workload == "spt_recursive"
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
