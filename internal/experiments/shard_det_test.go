package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Determinism gates for the sharded scheduler (DESIGN.md §13):
//
//   - Shards=1 must be BYTE-IDENTICAL to the default single-threaded
//     path — the partitioner refuses to build a single stripe, so the
//     single-threaded determinism guarantees (E1/E5/E7 trace bytes,
//     stats) carry over untouched;
//   - the same (seed, Shards=n) must replay identically run-to-run —
//     the parallel schedule is itself deterministic;
//   - on loss-free workloads the sharded fixpoint must equal the
//     single-threaded one (different schedule, same surviving base set,
//     same derived state).

// shardRunOut fingerprints one run for the gates above.
type shardRunOut struct {
	trace   []byte
	stats   string
	derived []string
	shards  int
}

func shardFingerprint(e *core.Engine, nw *nsim.Network, tr *obs.Trace) shardRunOut {
	var buf bytes.Buffer
	if _, err := tr.WriteJSONL(&buf, obs.Filter{}); err != nil {
		panic(err)
	}
	db := e.DerivedDB()
	var derived []string
	for _, pred := range db.Predicates() {
		for _, t := range db.Tuples(pred) {
			derived = append(derived, t.Key())
		}
	}
	sort.Strings(derived)
	return shardRunOut{
		trace: buf.Bytes(),
		stats: fmt.Sprintf("sent=%d bytes=%d dropped=%d retries=%d events=%d end=%d",
			nw.TotalSent, nw.TotalBytes, nw.TotalDropped, nw.TotalRetries, nw.EventsProcessed, nw.Now()),
		derived: derived,
		shards:  nw.ShardCount(),
	}
}

// shardE1Run: the E1 two-stream Perpendicular join (TraceE1's workload).
// tweak, when non-nil, adjusts the simulator config before deployment
// (the equivalence gates use it to flip the scheduler's A/B toggles).
func shardE1Run(shards int, tweak func(*nsim.Config)) shardRunOut {
	sim := nsim.Config{Seed: 11, Shards: shards}
	if tweak != nil {
		tweak(&sim)
	}
	nw := topo.Grid(8, sim)
	e, err := core.New(nw, mustProg(twoStreamSrc), core.Config{Scheme: gpa.Perpendicular, Shards: shards})
	if err != nil {
		panic(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTrace(1 << 16)
	nw.Observe(reg, tr)
	e.Observe(reg, tr)
	nw.Finalize()
	e.Start()
	injectJoinWorkload(e, nw, 40, 17)
	nw.Run(0)
	return shardFingerprint(e, nw, tr)
}

// shardE5Run: the E5 logicJ shortest-path-tree program over grid
// adjacency (ProvE5's workload, trace instead of provenance).
func shardE5Run(shards int, tweak func(*nsim.Config)) shardRunOut {
	sim := nsim.Config{Seed: 41, Shards: shards}
	if tweak != nil {
		tweak(&sim)
	}
	nw := topo.Grid(6, sim)
	e, err := core.New(nw, mustProg(logicJSrc), core.Config{Shards: shards})
	if err != nil {
		panic(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTrace(1 << 16)
	nw.Observe(reg, tr)
	e.Observe(reg, tr)
	nw.Finalize()
	for _, n := range nw.Nodes() {
		for _, nb := range n.Neighbors() {
			e.InjectAt(0, n.ID, eval.NewTuple("g",
				ast.Symbol(fmt.Sprintf("n%d", n.ID)),
				ast.Symbol(fmt.Sprintf("n%d", nb))))
		}
	}
	e.Start()
	nw.Run(0)
	return shardFingerprint(e, nw, tr)
}

// shardE7Run: the E7 lossy-link join (30% loss, 3 retries).
func shardE7Run(shards int, tweak func(*nsim.Config)) shardRunOut {
	sim := nsim.Config{Seed: 61, LossRate: 0.3, Retries: 3, Shards: shards}
	if tweak != nil {
		tweak(&sim)
	}
	nw := topo.Grid(8, sim)
	e, err := core.New(nw, mustProg(twoStreamSrc), core.Config{Scheme: gpa.Perpendicular, Shards: shards})
	if err != nil {
		panic(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTrace(1 << 16)
	nw.Observe(reg, tr)
	e.Observe(reg, tr)
	nw.Finalize()
	e.Start()
	injectLossyJoinWorkload(e, nw)
	nw.Run(0)
	return shardFingerprint(e, nw, tr)
}

// injectLossyJoinWorkload is the E7 gates' input: 40 ra/rb pairs over 20
// join keys at seeded nodes, one pair every 9 ticks.
func injectLossyJoinWorkload(e *core.Engine, nw *nsim.Network) {
	r := rand.New(rand.NewSource(67))
	for i := 0; i < 40; i++ {
		key := int64(i % 20)
		e.InjectAt(nsim.Time(i*9), nsim.NodeID(r.Intn(nw.Len())),
			eval.NewTuple("ra", ast.Int64(int64(i)), ast.Int64(key)))
		e.InjectAt(nsim.Time(i*9+4), nsim.NodeID(r.Intn(nw.Len())),
			eval.NewTuple("rb", ast.Int64(key), ast.Int64(int64(i))))
	}
}

var shardWorkloads = []struct {
	name string
	run  func(shards int, tweak func(*nsim.Config)) shardRunOut
}{
	{"E1join", shardE1Run},
	{"E5spt", shardE5Run},
	{"E7loss", shardE7Run},
}

// TestShardOneByteIdentical: Shards=1 takes the single-threaded path
// and must reproduce its trace bytes and stats exactly.
func TestShardOneByteIdentical(t *testing.T) {
	for _, w := range shardWorkloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			ref, one := w.run(0, nil), w.run(1, nil)
			if one.shards != 0 {
				t.Fatalf("Shards=1 built %d shards; it must stay single-threaded", one.shards)
			}
			if !bytes.Equal(ref.trace, one.trace) {
				t.Errorf("trace bytes diverged: default %d bytes, Shards=1 %d bytes", len(ref.trace), len(one.trace))
			}
			if ref.stats != one.stats {
				t.Errorf("stats diverged:\n default: %s\nShards=1: %s", ref.stats, one.stats)
			}
			if !reflect.DeepEqual(ref.derived, one.derived) {
				t.Errorf("derived sets diverged (%d vs %d tuples)", len(ref.derived), len(one.derived))
			}
		})
	}
}

// TestShardFourReplaysIdentically: the same (seed, Shards=4) run twice
// must match byte-for-byte — the parallel schedule is deterministic.
func TestShardFourReplaysIdentically(t *testing.T) {
	for _, w := range shardWorkloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			a, b := w.run(4, nil), w.run(4, nil)
			if a.shards < 2 {
				t.Fatalf("run did not shard (ShardCount = %d)", a.shards)
			}
			if !bytes.Equal(a.trace, b.trace) {
				t.Errorf("trace bytes diverged across replays (%d vs %d bytes)", len(a.trace), len(b.trace))
			}
			if a.stats != b.stats {
				t.Errorf("stats diverged across replays:\nfirst:  %s\nsecond: %s", a.stats, b.stats)
			}
			if !reflect.DeepEqual(a.derived, b.derived) {
				t.Errorf("derived sets diverged across replays (%d vs %d tuples)", len(a.derived), len(b.derived))
			}
		})
	}
}

// TestShardFourPreservesFixpoint: on loss-free workloads the sharded
// schedule delivers every message (later, in different order), so the
// final derived state must equal the single-threaded run's even though
// the traces legitimately differ (per-shard RNG streams draw different
// delays). E7 is excluded: under message loss the surviving set itself
// is schedule-dependent.
func TestShardFourPreservesFixpoint(t *testing.T) {
	for _, w := range shardWorkloads[:2] {
		w := w
		t.Run(w.name, func(t *testing.T) {
			ref, par := w.run(0, nil), w.run(4, nil)
			if par.shards < 2 {
				t.Fatalf("run did not shard (ShardCount = %d)", par.shards)
			}
			if !reflect.DeepEqual(ref.derived, par.derived) {
				t.Errorf("derived fixpoint diverged: single-threaded %d tuples, sharded %d tuples",
					len(ref.derived), len(par.derived))
			}
		})
	}
}

// TestShardCoalescingEquivalence: fold placement is pure observation
// plumbing, so a coalescing run (folds only under trace-buffer
// pressure), a fold-every-window run (ShardNoCoalesce), and a run
// folding under artificially tiny buffer pressure must all produce
// byte-identical traces, stats, and derived state for a fixed (seed,
// Shards) pair — on every workload, message loss included.
func TestShardCoalescingEquivalence(t *testing.T) {
	variants := []struct {
		name  string
		tweak func(*nsim.Config)
	}{
		{"nocoalesce", func(c *nsim.Config) { c.ShardNoCoalesce = true }},
		{"tinybacklog", func(c *nsim.Config) { c.ShardFoldBacklog = 64 }},
	}
	for _, w := range shardWorkloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			ref := w.run(4, nil)
			if ref.shards < 2 {
				t.Fatalf("run did not shard (ShardCount = %d)", ref.shards)
			}
			for _, v := range variants {
				got := w.run(4, v.tweak)
				if !bytes.Equal(ref.trace, got.trace) {
					t.Errorf("%s: trace bytes diverged from coalescing run (%d vs %d bytes)",
						v.name, len(ref.trace), len(got.trace))
				}
				if ref.stats != got.stats {
					t.Errorf("%s: stats diverged:\ncoalescing: %s\n%s: %s", v.name, ref.stats, v.name, got.stats)
				}
				if !reflect.DeepEqual(ref.derived, got.derived) {
					t.Errorf("%s: derived sets diverged (%d vs %d tuples)", v.name, len(ref.derived), len(got.derived))
				}
			}
		})
	}
}
