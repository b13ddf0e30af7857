package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/obs"
)

// TestExactCounts pins the simulated counts of four fixed-seed runs.
// The first three rows were recorded at commit 3105227 — the last one
// carrying the retained pre-PR-1/PR-2 implementations — where the typed
// event queue, grid index, routing cache and indexed join on the one
// side and the closure-heap queue, all-pairs scan, uncached routing and
// full-scan join on the other (every combination of the two groups of
// flags) produced exactly these numbers. With the old paths deleted, "byte-
// identical to the old path" is "identical to this table"; a change
// that moves a row changed the schedule, not just the speed.
//
// The fourth row is the only one that declares a window, so the only
// one whose numbers depend on when a replica is reclaimed. It was
// recorded at d375ea9, where ExpirePred was a scan of the whole table,
// and also pins per-node memory (replicas + derivation records) at
// quiescence, at one mid-run instant, and summed over a sample every
// 10 ticks: a store that expires a different set at any call moves the
// sum. Expiry is lazy, so how finely the row resolves retention depends
// on how often events reach the nodes: one tick more or less moved the
// sum by +58 / −136 when every out/2 tuple was replicated and every join
// sought its column's end; now ten ticks less moves it by −412 and ±3
// ticks move nothing.
//
// Every row but E5's moved once more, by design, when heads no rule
// reads lost their storage region and joins one probe from complete
// began sweeping their column both ways from the source: fewer
// messages, events and replicas, the same derived sets in the fault-free
// rows, and in the lossy row more derivations (64 → 74), because each
// crosses fewer lossy hops; every one of them is in the centralized
// evaluator's set (sound). The rows were re-recorded then; E5's runs no
// hash-placed rule and did not move.
func TestExactCounts(t *testing.T) {
	type counts struct {
		events, sent, bytes int64
		derived             int
		end                 nsim.Time
		mem                 memCounts
	}
	cases := []struct {
		name string
		run  func() (*core.Engine, *nsim.Network)
		// sampleMem: run returns before nw.Run, and the test steps the
		// network itself to read memory on the way.
		sampleMem bool
		// sound, when set, is the row's base facts under twoStreamSrc:
		// every derived tuple must be one the centralized evaluator
		// derives from them.
		sound []eval.Tuple
		want  counts
	}{
		{
			// The E1 m=18 Perpendicular join every allocation guard runs.
			name: "E1/m18/seed11",
			run: func() (*core.Engine, *nsim.Network) {
				e, nw := deployGrid(18, twoStreamSrc,
					core.Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 11})
				injectJoinWorkload(e, nw, 40, 17)
				nw.Run(0)
				return e, nw
			},
			want: counts{events: 3822, sent: 3582, bytes: 119319, derived: 80, end: 1508},
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
			sound: lossyJoinBase(),
			want:  counts{events: 1679, sent: 2109, bytes: 69132, derived: 74, end: 947},
		},
		{
			// E9's windowed stream: 60 pairs over 9,000 ticks, range 400.
			name: "E9/window400/m6/seed85",
			run: func() (*core.Engine, *nsim.Network) {
				e, nw := deployGrid(6, winSrc,
					core.Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 85})
				injectLong(e, nw)
				return e, nw
			},
			sampleMem: true,
			want: counts{events: 1729, sent: 1429, bytes: 46624, derived: 60, end: 9317,
				mem: memCounts{midMax: 5, midTotal: 98, endMax: 9, endTotal: 130, sampledTotal: 90191,
					expireCalls: 1500, expireDue: 497, expired: 650}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, nw := c.run()
			var mem memCounts
			if c.sampleMem {
				mem = runSamplingMem(e, nw)
			}
			got := counts{events: nw.EventsProcessed, sent: nw.TotalSent, bytes: nw.TotalBytes, end: nw.Now(), mem: mem}
			for _, pred := range e.Analysis().Program.DerivedPredicates() {
				got.derived += len(e.Derived(pred))
			}
			if got != c.want {
				t.Errorf("counts moved:\n got %+v\nwant %+v", got, c.want)
			}
			if c.sound == nil {
				return
			}
			ev, err := eval.New(mustProg(twoStreamSrc), eval.Options{})
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := ev.Run(c.sound)
			if err != nil {
				t.Fatal(err)
			}
			for _, tup := range e.Derived("out/2") {
				if !oracle.Contains(tup) {
					t.Errorf("derived %v, which the oracle does not", tup)
				}
			}
		})
	}
}

// memCounts is core.mem.max / core.mem.total_tuples read through the obs
// provider path at tick 4400, at quiescence, and the total summed over
// every 10th tick up to 9500; then the expiry counters. The counters did
// not exist at d375ea9: expired is the sum of what its ExpirePred calls
// returned there, the other two were first read at this commit — of
// 2,171 handler entries 527 found something due.
type memCounts struct {
	midMax, midTotal, endMax, endTotal, sampledTotal int64
	expireCalls, expireDue, expired                  int64
}

func runSamplingMem(e *core.Engine, nw *nsim.Network) memCounts {
	reg := obs.NewRegistry()
	nw.Observe(reg, nil)
	e.Observe(reg, nil)
	var mem memCounts
	for at := nsim.Time(10); at <= 9500; at += 10 {
		nw.Run(at)
		s := reg.Snapshot()
		mem.sampledTotal += s.Get("core.mem.total_tuples")
		if at == 4400 {
			mem.midMax, mem.midTotal = s.Get("core.mem.max"), s.Get("core.mem.total_tuples")
		}
	}
	nw.Run(0)
	s := reg.Snapshot()
	mem.endMax, mem.endTotal = s.Get("core.mem.max"), s.Get("core.mem.total_tuples")
	mem.expireCalls, mem.expireDue, mem.expired =
		s.Get("window.expire_calls"), s.Get("window.expire_due"), s.Get("window.expired")
	return mem
}

// injectLossyJoinWorkload is the E7 row's input: 40 ra/rb pairs over 20
// join keys at seeded nodes, one pair every 9 ticks.
func injectLossyJoinWorkload(e *core.Engine, nw *nsim.Network) {
	r := rand.New(rand.NewSource(67))
	base := lossyJoinBase()
	for i := 0; i < 40; i++ {
		e.InjectAt(nsim.Time(i*9), nsim.NodeID(r.Intn(nw.Len())), base[2*i])
		e.InjectAt(nsim.Time(i*9+4), nsim.NodeID(r.Intn(nw.Len())), base[2*i+1])
	}
}

// lossyJoinBase is the E7 row's base facts, pair by pair.
func lossyJoinBase() []eval.Tuple {
	var base []eval.Tuple
	for i := int64(0); i < 40; i++ {
		base = append(base, eval.NewTuple("ra", ast.Int64(i), ast.Int64(i%20)),
			eval.NewTuple("rb", ast.Int64(i%20), ast.Int64(i)))
	}
	return base
}
