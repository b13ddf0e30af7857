package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gpa"
	"repro/internal/nsim"
)

// deployE15 builds the E15 workload: the E1 m=18 Perpendicular join,
// MinDelay 4 so lookahead windows hold several events, 40 ra/rb pairs.
func deployE15(shards int) *nsim.Network {
	e, nw := deployGrid(18, twoStreamSrc,
		core.Config{Scheme: gpa.Perpendicular, Shards: shards},
		nsim.Config{Seed: 11, MinDelay: 4, MaxDelay: 8, Shards: shards})
	injectJoinWorkload(e, nw, 40, 17)
	return nw
}

// TestShardBarrierBudget pins the synchronization cost of the sharded
// scheduler on the E15 workload. Unlike a timing-based speedup gate this
// count is deterministic, so the budget is tight: an unobserved run
// buffers no trace records, never reaches fold pressure, and must elide
// essentially every window fold. A budget violation means barrier cost
// became proportional to simulated time again instead of to observation
// demand. `make bench-shards-smoke` runs only this test, as the cheap
// wall-clock-free stand-in for BenchmarkE15Shards.
func TestShardBarrierBudget(t *testing.T) {
	const (
		shards        = 4
		maxPer1k      = 12.0 // mid-run folds per 1k events; actual is 0
		minElidedFrac = 0.9  // at least 90% of windows must skip their fold
	)
	nw := deployE15(shards)
	nw.Run(0)

	if nw.EventsProcessed == 0 || nw.ShardWindows == 0 {
		t.Fatalf("workload did not exercise the sharded scheduler: events=%d windows=%d",
			nw.EventsProcessed, nw.ShardWindows)
	}
	per1k := 1000 * float64(nw.ShardBarriers) / float64(nw.EventsProcessed)
	if per1k > maxPer1k {
		t.Errorf("mid-run folds: %.2f per 1k events (%d folds / %d events), budget %.2f",
			per1k, nw.ShardBarriers, nw.EventsProcessed, maxPer1k)
	}
	if frac := float64(nw.ShardElided) / float64(nw.ShardWindows); frac < minElidedFrac {
		t.Errorf("fold elision inactive: %d of %d windows elided (%.0f%%), want >= %.0f%%",
			nw.ShardElided, nw.ShardWindows, 100*frac, 100*minElidedFrac)
	}
	if nw.ShardBarriers+nw.ShardElided != nw.ShardWindows {
		t.Errorf("window accounting broken: barriers %d + elided %d != windows %d",
			nw.ShardBarriers, nw.ShardElided, nw.ShardWindows)
	}
}

// BenchmarkE15Shards is the one scheduler A/B whose question is still
// open: does Shards=4 beat the serial loop on the E15 workload? On a
// machine with at least four cores:
//
//	go test -run '^$' -bench E15Shards -cpu 4 ./internal/experiments/
//
// Each shard count is its own deterministic schedule (per-shard RNG
// streams draw different delays), so events/op differs between the two
// rows; compare events/s.
func BenchmarkE15Shards(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var events int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nw := deployE15(shards)
				b.StartTimer()
				nw.Run(0)
				events += nw.EventsProcessed
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
