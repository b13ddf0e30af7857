package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/nsim"
)

// The batched link transport must be invisible to the program: the same
// workload with BatchLinks on and off reaches the same final derived
// database, while the batched run ships strictly fewer link messages and
// strictly fewer accounted bytes (shared headers).

func derivedFingerprint(e *Engine) string {
	db := e.DerivedDB()
	var b strings.Builder
	for _, pred := range db.Predicates() {
		b.WriteString(pred)
		b.WriteString(":\n")
		for _, t := range db.Tuples(pred) {
			b.WriteString("  ")
			b.WriteString(t.Key())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestBatchLinksEquivalence(t *testing.T) {
	src := `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
.query out/2.
`
	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			run := func(batch bool) (*Engine, *nsim.Network) {
				e, nw := buildGrid(t, 8, src,
					Config{Scheme: gpa.Perpendicular, BatchLinks: batch},
					nsim.Config{Seed: seed, MaxSkew: 5})
				r := rand.New(rand.NewSource(seed*31 + 7))
				at := nsim.Time(0)
				// Epoch bursts: one source emits a handful of tuples in
				// the same tick, so the storage and join walkers they
				// spawn travel the sweep paths together.
				for burst := 0; burst < 6; burst++ {
					at += nsim.Time(400 + r.Intn(300))
					node := nsim.NodeID(r.Intn(nw.Len()))
					for k := 0; k < 4; k++ {
						x := int64(r.Intn(6))
						y := int64(r.Intn(4))
						e.InjectAt(at, node, eval.NewTuple("ra", ast.Int64(x), ast.Int64(y)))
						e.InjectAt(at, node, eval.NewTuple("rb", ast.Int64(y), ast.Int64(int64(r.Intn(6)))))
					}
				}
				nw.Run(0)
				return e, nw
			}
			eOff, nwOff := run(false)
			eOn, nwOn := run(true)
			if fo, fb := derivedFingerprint(eOff), derivedFingerprint(eOn); fo != fb {
				t.Fatalf("derived state differs:\nunbatched:\n%s\nbatched:\n%s", fo, fb)
			}
			if nwOn.TotalSent >= nwOff.TotalSent {
				t.Fatalf("batching did not reduce messages: %d batched vs %d unbatched",
					nwOn.TotalSent, nwOff.TotalSent)
			}
			if nwOn.TotalBytes >= nwOff.TotalBytes {
				t.Fatalf("batching did not reduce bytes: %d batched vs %d unbatched",
					nwOn.TotalBytes, nwOff.TotalBytes)
			}
			if nwOn.KindCounts()[kindBatch] == 0 {
				t.Fatal("no frames were formed")
			}
			if nwOff.KindCounts()[kindBatch] != 0 {
				t.Fatal("unbatched run formed frames")
			}
		})
	}
}

// TestBatchFrameAccounting pins the frame format arithmetic: a frame of
// k items costs one shared header plus the items' header-stripped sizes.
func TestBatchFrameAccounting(t *testing.T) {
	nw := nsim.New(nsim.Config{Seed: 1})
	a := nw.AddNode(0, 0)
	nw.AddNode(1, 0)
	e := &Engine{nw: nw, cfg: Config{BatchLinks: true}}
	rt := &nodeRT{e: e, node: a}
	a.App = rt
	nw.Finalize()
	nw.ScheduleAt(0, func() {
		rt.send(1, kindResult, nil, 30)
		rt.send(1, kindResult, nil, 20)
		rt.send(1, kindResult, nil, 14)
	})
	nw.Run(0)
	wantBytes := int64(linkHeader + (30 - linkHeader) + (20 - linkHeader) + (14 - linkHeader))
	if nw.TotalSent != 1 {
		t.Fatalf("sent %d messages, want 1 frame", nw.TotalSent)
	}
	if nw.TotalBytes != wantBytes {
		t.Fatalf("accounted %d bytes, want %d", nw.TotalBytes, wantBytes)
	}
	if nw.KindCounts()[kindBatch] != 1 {
		t.Fatalf("kind counts = %v", nw.KindCounts())
	}
}
