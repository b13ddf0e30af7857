package snlog_test

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (experiments E1..E14 in DESIGN.md). Each bench
// re-runs the corresponding experiment function — the same code the
// snbench CLI uses to regenerate EXPERIMENTS.md — and reports the
// headline figure as a custom metric so `go test -bench` output records
// the reproduced numbers, not just wall time.

import (
	"math/rand"
	"testing"

	snlog "repro"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/parser"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

// headline extracts a numeric cell from a table for ReportMetric.
func headline(t *metrics.Table, row, col int) string {
	rows := t.Rows()
	if row < len(rows) && col < len(rows[row]) {
		return rows[row][col]
	}
	return ""
}

func BenchmarkE1JoinApproaches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E1JoinApproaches([]int{6, 10}, 10)
		if len(tbl.Rows()) != 10 {
			b.Fatalf("unexpected table shape: %d rows", len(tbl.Rows()))
		}
	}
}

func BenchmarkE2LoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E2LoadBalance(10, 30)
		if len(tbl.Rows()) != 3 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkE3MultiStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E3MultiStream(8, []int{2, 3, 4}, 4)
		if len(tbl.Rows()) != 6 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkE4Spatial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E4Spatial(10, []float64{0, 8, 4, 2}, 8)
		if len(tbl.Rows()) != 4 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkE5SPT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E5SPT([]int{5, 7})
		for _, row := range tbl.Rows() {
			if row[len(row)-1] != "true" {
				b.Fatalf("SPT incorrect: %v", row)
			}
		}
	}
}

func BenchmarkE6Deletions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E6Deletions(150, []float64{0.1, 0.3, 0.5})
		if len(tbl.Rows()) != 9 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkE7Loss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E7Loss(8, []float64{0, 0.1, 0.2}, 12)
		if len(tbl.Rows()) != 6 { // two rows (ARQ off/on) per loss rate

			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkE8Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E8Latency([]int{6, 10})
		if len(tbl.Rows()) != 2 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkE9Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E9Memory(7)
		if len(tbl.Rows()) != 4 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkE10Magic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E10Magic(6, 10)
		if len(tbl.Rows()) != 2 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkE11Aggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E11Aggregation([]int{6, 10})
		if len(tbl.Rows()) != 4 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkE12Lifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E12Lifetime(8, 400, 60)
		if len(tbl.Rows()) != 3 {
			b.Fatal("unexpected table shape")
		}
	}
}

// --- micro-benchmarks of the core machinery ---

func BenchmarkParse(b *testing.B) {
	src := `
.base veh/3.
cov(L, T) :- veh(enemy, L, T), veh(friendly, L2, T), dist(L, L2) <= 5.
uncov(L, T) :- NOT cov(L, T), veh(enemy, L, T).
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := snlog.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCentralizedEvalTC(b *testing.B) {
	src := `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`
	var facts []snlog.Tuple
	for i := int64(0); i < 60; i++ {
		facts = append(facts, snlog.NewTuple("edge", snlog.Int(i), snlog.Int(i+1)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := snlog.Eval(src, facts)
		if err != nil {
			b.Fatal(err)
		}
		if db.Count("path/2") != 60*61/2 {
			b.Fatal("wrong result")
		}
	}
}

func BenchmarkDistributedJoinGrid10(b *testing.B) {
	src := `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
`
	for i := 0; i < b.N; i++ {
		c, err := snlog.Deploy(snlog.Grid(10), src, snlog.WithSeed(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			c.InjectAt(int64(k*7), (k*13)%c.Size(), snlog.NewTuple("ra", snlog.Int(int64(k)), snlog.Int(int64(k))))
			c.InjectAt(int64(k*7+3), (k*17+5)%c.Size(), snlog.NewTuple("rb", snlog.Int(int64(k)), snlog.Int(int64(k))))
		}
		c.Run()
		if len(c.Results("out/2")) != 10 {
			b.Fatal("wrong result")
		}
	}
}

// BenchmarkJoinWindowGrid64 is a sliding-window join long enough for
// routing to show at its real share in a profile (E1's runs are a few
// thousand events): out(X,Z) :- ra(X,Y), rb(Y,Z) under Perpendicular on
// a 64x64 grid with a 2000-tick window, 1,200 seeded ra/rb pairs at
// random nodes, pair i and pair i+600 sharing a join key. Every pair is
// one derivation; the pairs that share a key sit 4,200 ticks apart,
// outside the window. Reports simulated events per second.
func BenchmarkJoinWindowGrid64(b *testing.B) {
	const src = `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
`
	const grid, pairs = 64, 1200
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := snlog.Deploy(snlog.Grid(grid), src, snlog.WithScheme(snlog.Perpendicular),
			snlog.WithDefaultWindow(2000), snlog.WithMaxSkew(5), snlog.WithSeed(7))
		if err != nil {
			b.Fatal(err)
		}
		r := rand.New(rand.NewSource(7))
		for k := 0; k < pairs; k++ {
			key := snlog.Int(int64(k % (pairs / 2)))
			at := int64(k * 7)
			c.InjectAt(at, r.Intn(c.Size()), snlog.NewTuple("ra", snlog.Int(int64(k)), key))
			c.InjectAt(at+3, r.Intn(c.Size()), snlog.NewTuple("rb", key, snlog.Int(int64(k))))
		}
		b.StartTimer()
		c.Run()
		b.StopTimer()
		if got := len(c.Results("out/2")); got != pairs {
			b.Fatalf("%d results, want %d", got, pairs)
		}
		events += c.Network.EventsProcessed
		b.StartTimer()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkJoinIndexed exercises the centralized join machinery on the
// 60-node transitive-closure workload, pre-parsed (BenchmarkCentralizedEvalTC
// is the same workload through Eval, parse included).
func BenchmarkJoinIndexed(b *testing.B) {
	src := `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`
	p, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	var facts []snlog.Tuple
	for i := int64(0); i < 60; i++ {
		facts = append(facts, snlog.NewTuple("edge", snlog.Int(i), snlog.Int(i+1)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := eval.New(p, eval.Options{})
		if err != nil {
			b.Fatal(err)
		}
		db, err := ev.Run(facts)
		if err != nil {
			b.Fatal(err)
		}
		if db.Count("path/2") != 60*61/2 {
			b.Fatal("wrong result")
		}
	}
}
