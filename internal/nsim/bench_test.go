package nsim

import (
	"math/rand"
	"testing"
)

// benchNet builds an n-node random network (no apps) for Finalize
// benchmarks.
func benchNet(n int, cfg Config) *Network {
	r := rand.New(rand.NewSource(7))
	nw := New(cfg)
	side := 1.25 * float64(intSqrt(n))
	for i := 0; i < n; i++ {
		nw.AddNode(r.Float64()*side, r.Float64()*side)
	}
	return nw
}

func intSqrt(n int) int {
	i := 1
	for i*i < n {
		i++
	}
	return i
}

func BenchmarkFinalizeGrid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nw := benchNet(1600, Config{Seed: 7})
		nw.Finalize()
	}
}

func BenchmarkEventsTyped(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nw, _ := runChatty()
		if nw.EventsProcessed == 0 {
			b.Fatal("no events processed")
		}
	}
}
