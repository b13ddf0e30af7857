// Package topo builds network topologies on top of the nsim simulator:
// the m×m unit grid of Section III-A, random geometric graphs (the
// "arbitrary topology" case of Theorem 2), and small utility shapes.
package topo

import (
	"fmt"
	"math/rand"

	"repro/internal/nsim"
)

// Grid creates an m×m grid network: a node of unit transmission radius at
// every integer coordinate (p, q), 0 <= p, q < m, exactly as the paper
// defines it. Orthogonal neighbors are connected (diagonal distance √2
// exceeds the unit radio range).
func Grid(m int, cfg nsim.Config) *nsim.Network {
	if cfg.Range == 0 {
		cfg.Range = 1.0
	}
	nw := nsim.New(cfg)
	for q := 0; q < m; q++ {
		for p := 0; p < m; p++ {
			nw.AddNode(float64(p), float64(q))
		}
	}
	return nw
}

// GridID returns the NodeID at grid coordinates (p, q) in an m×m grid
// built by Grid.
func GridID(m, p, q int) nsim.NodeID { return nsim.NodeID(q*m + p) }

// GridCoords inverts GridID.
func GridCoords(m int, id nsim.NodeID) (p, q int) {
	return int(id) % m, int(id) / m
}

// RandomGeometric creates n nodes placed uniformly in a side×side square
// with the given radio range, retrying until the topology is connected
// (or attempts exhaust). The placement RNG is independent of the
// simulator's message RNG so topologies are stable across loss settings.
func RandomGeometric(n int, side, radioRange float64, seed int64, cfg nsim.Config) (*nsim.Network, error) {
	cfg.Range = radioRange
	r := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < 200; attempt++ {
		nw := nsim.New(cfg)
		for i := 0; i < n; i++ {
			nw.AddNode(r.Float64()*side, r.Float64()*side)
		}
		if connected(nw, radioRange) {
			return nw, nil
		}
	}
	return nil, fmt.Errorf("topo: no connected placement of %d nodes in %.1f x %.1f with range %.2f after 200 attempts",
		n, side, side, radioRange)
}

// connected checks adjacency-graph connectivity before Finalize (which
// would lock the node set) by recomputing neighborhoods locally.
func connected(nw *nsim.Network, radioRange float64) bool {
	nodes := nw.Nodes()
	if len(nodes) == 0 {
		return false
	}
	r2 := radioRange * radioRange
	adj := make([][]int, len(nodes))
	for i, a := range nodes {
		for j, b := range nodes {
			if i == j {
				continue
			}
			dx, dy := a.X-b.X, a.Y-b.Y
			if dx*dx+dy*dy <= r2+1e-9 {
				adj[i] = append(adj[i], j)
			}
		}
	}
	seen := make([]bool, len(nodes))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == len(nodes)
}
