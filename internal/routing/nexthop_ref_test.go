package routing

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/nsim"
)

// nextHopRef is the greedy-avoid decision as one loop with both
// conditions: the nearest live neighbor not on the path, the path
// scanned once per neighbor. NextHopGreedyAvoid must pick exactly the
// hop it picks.
func nextHopRef(nw *nsim.Network, from nsim.NodeID, tx, ty float64, visited []nsim.NodeID) (nsim.NodeID, bool) {
	self := nw.Node(from)
	best := from
	bestD := math.Inf(1)
	for _, nb := range self.Neighbors() {
		n := nw.Node(nb)
		if n.Down || slices.Contains(visited, nb) {
			continue
		}
		d := dist(n.X, n.Y, tx, ty)
		if d < bestD {
			best, bestD = nb, d
		}
	}
	return best, best != from
}

// randomNet places n nodes uniformly in a side x side square with radio
// range 1 and takes each one down with probability pDown.
func randomNet(r *rand.Rand, n int, side, pDown float64) *nsim.Network {
	nw := nsim.New(nsim.Config{Seed: r.Int63()})
	for i := 0; i < n; i++ {
		nw.AddNode(r.Float64()*side, r.Float64()*side)
	}
	nw.Finalize()
	for _, nd := range nw.Nodes() {
		nd.Down = r.Float64() < pDown
	}
	return nw
}

// checkNextHop compares NextHopGreedyAvoid against nextHopRef for trials
// random (node, target, path) triples on nw. A path is a random subset
// of the nodes, and in half the trials it also holds the node the
// decision would pick with no path at all, so the rescan is exercised.
func checkNextHop(t *testing.T, r *rand.Rand, nw *nsim.Network, side, pVisit float64, trials int) {
	t.Helper()
	for trial := 0; trial < trials; trial++ {
		from := nsim.NodeID(r.Intn(nw.Len()))
		tx, ty := r.Float64()*side*1.2-side*0.1, r.Float64()*side*1.2-side*0.1
		if r.Intn(4) == 0 { // a target on a node: distance ties are likelier
			n := nw.Node(nsim.NodeID(r.Intn(nw.Len())))
			tx, ty = n.X, n.Y
		}
		var visited []nsim.NodeID
		for _, nd := range nw.Nodes() {
			if r.Float64() < pVisit {
				visited = append(visited, nd.ID)
			}
		}
		if winner, ok := nextHopRef(nw, from, tx, ty, nil); ok && r.Intn(2) == 0 {
			visited = append(visited, winner)
			r.Shuffle(len(visited), func(i, j int) { visited[i], visited[j] = visited[j], visited[i] })
		}
		want, wantOK := nextHopRef(nw, from, tx, ty, visited)
		got, gotOK := NextHopGreedyAvoid(nw, from, tx, ty, visited)
		if got != want || gotOK != wantOK {
			t.Fatalf("from %d to (%g, %g), path %v: hop %d %v, reference %d %v", from, tx, ty, visited, got, gotOK, want, wantOK)
		}
	}
}

// FuzzNextHopGreedyAvoid holds the winner-first decision to the
// reference on random geometric graphs with random Down sets and paths.
// The seed inputs, which every go test run checks, span 2–257 nodes,
// 0–40 % down and 0–58 % of the nodes on the path.
func FuzzNextHopGreedyAvoid(f *testing.F) {
	for seed := int64(0); seed < 40; seed++ {
		f.Add(seed, uint8(seed*37), uint8(seed%5*10), uint8(seed*13%59))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, downPct, visitPct uint8) {
		r := rand.New(rand.NewSource(seed))
		size := 2 + int(n)
		side := math.Sqrt(float64(size)) * 0.8
		nw := randomNet(r, size, side, float64(downPct%101)/100)
		checkNextHop(t, r, nw, side, float64(visitPct%101)/100, 32)
	})
}
