package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gpa"
	"repro/internal/nsim"
)

// TestExactCounts pins the simulated counts of three fixed-seed runs.
// The rows were recorded at commit 3105227 — the last one carrying the
// retained pre-PR-1/PR-2 implementations — where the typed event queue,
// grid index, routing cache and indexed join on the one side and the
// closure-heap queue, all-pairs scan, uncached routing and full-scan
// join on the other (every combination of the two groups of flags)
// produced exactly these numbers. With the old paths deleted, "byte-
// identical to the old path" is "identical to this table"; a change
// that moves a row changed the schedule, not just the speed.
func TestExactCounts(t *testing.T) {
	type counts struct {
		events, sent, bytes int64
		derived             int
		end                 nsim.Time
	}
	cases := []struct {
		name string
		run  func() (*core.Engine, *nsim.Network)
		want counts
	}{
		{
			// The E1 m=18 Perpendicular join every allocation guard and
			// the Shards sweep run.
			name: "E1/m18/seed11",
			run: func() (*core.Engine, *nsim.Network) {
				e, nw := deployGrid(18, twoStreamSrc,
					core.Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 11})
				injectJoinWorkload(e, nw, 40, 17)
				nw.Run(0)
				return e, nw
			},
			want: counts{events: 5962, sent: 5642, bytes: 175919, derived: 80, end: 1812},
		},
		{
			name: "E5/logicJ/m6/seed41",
			run:  func() (*core.Engine, *nsim.Network) { return runSPTProgram(6, logicJSrc, 41) },
			want: counts{events: 1208, sent: 716, bytes: 19058, derived: 71, end: 6512},
		},
		{
			// 30 % loss, 3 link-layer retries: the loss draws, retry
			// timers and drops are part of the pinned schedule.
			name: "E7/loss30/m8/seed61",
			run: func() (*core.Engine, *nsim.Network) {
				e, nw := deployGrid(8, twoStreamSrc,
					core.Config{Scheme: gpa.Perpendicular},
					nsim.Config{Seed: 61, LossRate: 0.3, Retries: 3})
				injectLossyJoinWorkload(e, nw)
				nw.Run(0)
				return e, nw
			},
			want: counts{events: 2383, sent: 3030, bytes: 94634, derived: 64, end: 1091},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, nw := c.run()
			got := counts{events: nw.EventsProcessed, sent: nw.TotalSent, bytes: nw.TotalBytes, end: nw.Now()}
			db := e.DerivedDB()
			for _, pred := range db.Predicates() {
				got.derived += db.Count(pred)
			}
			if got != c.want {
				t.Errorf("counts moved:\n got %+v\nwant %+v", got, c.want)
			}
		})
	}
}
