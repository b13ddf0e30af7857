package check

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datalog/parser"
	"repro/internal/obs"
)

// -seed reruns a single differential case (any churn sweep below) with
// the given seed, for reproducing a failure reported by the sweep:
//
//	go test ./internal/check -run TestDifferentialSweep -seed 17 -v
var seedFlag = flag.Int64("seed", -1, "run only this differential seed")

// Every generated program must parse and compile; exercise far more
// seeds than the differential sweep can afford to execute.
func TestGeneratedProgramsCompile(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		g := Generate(rand.New(rand.NewSource(seed)))
		if _, err := parser.Parse(g.Src); err != nil {
			t.Fatalf("seed %d: generated program does not parse: %v\n%s", seed, err, g.Src)
		}
	}
}

// The tentpole acceptance test: across seeds 0–999 of (program,
// workload, fault schedule) — including runs whose deletions land
// inside an open partition, and over half of them replaying at least
// once — the engine's final derived state must equal the centralized
// oracle over the surviving base facts, repairing with Engine.Replay
// where the faults lost state.
func TestDifferentialSweep(t *testing.T) {
	seeds := make([]int64, 0, 1000)
	if *seedFlag >= 0 {
		seeds = append(seeds, *seedFlag)
	} else {
		for s := int64(0); s < 1000; s++ {
			seeds = append(seeds, s)
		}
	}
	partitionDeletes := 0
	for _, seed := range seeds {
		seed := seed
		// Seeds cycle through churn levels so the sweep covers
		// fault-free, light and heavy schedules.
		churn := int(seed % 3 * 2) // 0, 2, 4
		t.Run(fmt.Sprintf("seed%d/churn%d", seed, churn), func(t *testing.T) {
			res, err := Run(Config{Seed: seed, Churn: churn})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !res.Converged {
				t.Fatalf("seed %d churn %d: not converged after %d repair rounds: %s\nprogram:\n%s",
					seed, churn, res.Rounds, res.Mismatch, res.Program)
			}
			if churn == 0 && res.Rounds != 0 {
				t.Errorf("seed %d: fault-free run needed %d repair rounds", seed, res.Rounds)
			}
			if res.Rounds > 0 && res.ExplainDump == "" {
				t.Errorf("seed %d: divergence needed %d repair rounds but captured no explain dump", seed, res.Rounds)
			}
			if res.Rounds > 0 {
				t.Logf("seed %d divergence dump:\n%s", seed, res.ExplainDump)
			}
			partitionDeletes += res.PartitionDeletes
			t.Logf("seed %d churn %d: rounds=%d msgs=%d repair=%d faults=%+v",
				seed, churn, res.Rounds, res.Messages, res.RepairMessages, res.Faults)
		})
	}
	if *seedFlag < 0 && partitionDeletes == 0 {
		t.Errorf("no sweep run deleted a tuple inside an open partition; the hard case went uncovered")
	}
}

// The same (program, workload, schedule, seed) must replay
// byte-identically: the serialized trace of two runs is compared as
// raw bytes.
func TestRunDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 5} {
		run := func() []byte {
			res, err := Run(Config{Seed: seed, Churn: 3, TraceCap: 1 << 15})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			var buf bytes.Buffer
			if _, err := res.Trace.WriteJSONL(&buf, obs.Filter{}); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		a, b := run(), run()
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two identical runs produced different traces (%d vs %d bytes)", seed, len(a), len(b))
		}
	}
}
