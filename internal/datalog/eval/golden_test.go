package eval

import (
	"fmt"
	"math/rand"
	"testing"
)

// The goldens in this file pin "same work, same order" for incremental
// maintenance: they were recorded at commit 1f2e38f, while the Maintainer
// still had its own copy of the body solver, by running this file
// there with empty tables:
//
//	go test -run 'TestMaintStatsGoldenE6|TestChangeStreamGolden' -v ./internal/datalog/eval/
//
// and copying the logged "got" lines in. A change to the solver that
// leaves them alone examines the same tuples in the same order, finds the
// same solutions and emits the same Changes in the same order.

// TestMaintStatsGoldenE6 replays experiment E6's timeline (snbench -only
// E6: 300 operations, seed 53) and pins every work counter it publishes.
func TestMaintStatsGoldenE6(t *testing.T) {
	golden := map[string]MaintStats{
		"10/set-of-derivations": {JoinOps: 3442, ScanOps: 3330, DerivationsHeld: 1198, Rederivations: 0, CascadeSteps: 432},
		"10/counting":           {JoinOps: 3442, ScanOps: 3330, DerivationsHeld: 0, Rederivations: 0, CascadeSteps: 543},
		"10/rederivation":       {JoinOps: 4459, ScanOps: 4328, DerivationsHeld: 0, Rederivations: 109, CascadeSteps: 1593},
		"30/set-of-derivations": {JoinOps: 1659, ScanOps: 1560, DerivationsHeld: 210, Rederivations: 0, CascadeSteps: 495},
		"30/counting":           {JoinOps: 1659, ScanOps: 1560, DerivationsHeld: 0, Rederivations: 0, CascadeSteps: 608},
		"30/rederivation":       {JoinOps: 2895, ScanOps: 2763, DerivationsHeld: 0, Rederivations: 213, CascadeSteps: 1844},
		"50/set-of-derivations": {JoinOps: 279, ScanOps: 201, DerivationsHeld: 4, Rederivations: 0, CascadeSteps: 475},
		"50/counting":           {JoinOps: 279, ScanOps: 201, DerivationsHeld: 0, Rederivations: 0, CascadeSteps: 503},
		"50/rederivation":       {JoinOps: 359, ScanOps: 214, DerivationsHeld: 0, Rederivations: 88, CascadeSteps: 1541},
	}
	for _, frac := range []float64{0.1, 0.3, 0.5} {
		for _, mode := range allModes {
			m := newMaint(t, uncovSrc, mode)
			r := rand.New(rand.NewSource(53))
			var live []Tuple
			for i := 0; i < 300; i++ {
				if len(live) > 0 && r.Float64() < frac {
					k := r.Intn(len(live))
					if _, err := m.Delete(live[k]); err != nil {
						t.Fatal(err)
					}
					live = append(live[:k], live[k+1:]...)
					continue
				}
				kind := "enemy"
				if r.Intn(2) == 0 {
					kind = "friendly"
				}
				tup := vehTuple(kind, int64(r.Intn(10)), int64(r.Intn(10)), int64(r.Intn(4)))
				if _, err := m.Insert(tup); err != nil {
					t.Fatal(err)
				}
				live = append(live, tup)
			}
			name := fmt.Sprintf("%d/%s", int(frac*100), mode)
			got := m.Stats()
			t.Logf("got %q: %+v", name, got)
			if got != golden[name] {
				t.Errorf("%s: stats %+v, golden %+v", name, got, golden[name])
			}
		}
	}
}

// TestChangeStreamGolden pins, per corpus program and mode, the hash of
// the ordered Change stream checkTimeline's seeded timeline returns.
func TestChangeStreamGolden(t *testing.T) {
	golden := map[string]uint64{
		"tc-chain-cycle/set-of-derivations":      0xe6682f7ce377f761,
		"tc-chain-cycle/counting":                0xe6682f7ce377f761,
		"tc-chain-cycle/rederivation":            0xe6682f7ce377f761,
		"negation-uncovered/set-of-derivations":  0xf8ec415c814d91c6,
		"negation-uncovered/counting":            0x6bffa3bf548bd92,
		"negation-uncovered/rederivation":        0xf8ec415c814d91c6,
		"builtins-arith/set-of-derivations":      0xf386ae55bd560a73,
		"builtins-arith/counting":                0xf386ae55bd560a73,
		"builtins-arith/rederivation":            0x497aa190b3eaf453,
		"self-join-triangle/set-of-derivations":  0xb35d8c4141ceeb66,
		"self-join-triangle/counting":            0xb35d8c4141ceeb66,
		"self-join-triangle/rederivation":        0xb35d8c4141ceeb66,
		"reach-flagged-quiet/set-of-derivations": 0x1651c77603543167,
		"reach-flagged-quiet/counting":           0x1651c77603543167,
		"reach-flagged-quiet/rederivation":       0x53c2c6ce412e854b,
	}
	for _, in := range append(timelineCorpus(), reachInput) {
		for _, mode := range allModes {
			name := fmt.Sprintf("%s/%s", in.name, mode)
			got := checkTimeline(t, in, mode, 1)
			t.Logf("got %q: %#x,", name, got)
			if got != golden[name] {
				t.Errorf("%s: change stream hashes to %#x, golden %#x", name, got, golden[name])
			}
		}
	}
}
