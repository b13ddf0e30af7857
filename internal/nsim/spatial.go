package nsim

import (
	"math"
	"sort"
)

// spatialIndex is a uniform grid over node positions. The cell size is
// chosen as sqrt(Range²+ε)+ε, slightly above the largest separation the
// neighbor predicate dx²+dy² ≤ Range²+1e-9 admits, so any two nodes in
// radio range occupy the same or adjacent cells and a 3×3 cell scan is
// exhaustive. Node positions are immutable after Finalize (AddNode
// panics once finalized), so the index is never rebuilt; node death is
// handled by filtering Down nodes at query time, which is the only
// invalidation the monotone Down transition needs.
type spatialIndex struct {
	cell       float64
	minX, minY float64
	cols, rows int
	cells      [][]NodeID // cells[row*cols+col], IDs in ascending order
}

func (nw *Network) buildSpatialIndex() {
	if len(nw.nodes) == 0 {
		return
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, n := range nw.nodes {
		minX = math.Min(minX, n.X)
		minY = math.Min(minY, n.Y)
		maxX = math.Max(maxX, n.X)
		maxY = math.Max(maxY, n.Y)
	}
	cell := math.Sqrt(nw.cfg.Range*nw.cfg.Range+1e-9) + 1e-9
	cols := int((maxX-minX)/cell) + 1
	rows := int((maxY-minY)/cell) + 1
	s := &spatialIndex{cell: cell, minX: minX, minY: minY, cols: cols, rows: rows,
		cells: make([][]NodeID, cols*rows)}
	for _, n := range nw.nodes { // ID order keeps per-cell lists sorted
		c := s.cellAt(n.X, n.Y)
		s.cells[c] = append(s.cells[c], n.ID)
	}
	nw.index = s
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (s *spatialIndex) colOf(x float64) int { return clampInt(int((x-s.minX)/s.cell), 0, s.cols-1) }
func (s *spatialIndex) rowOf(y float64) int { return clampInt(int((y-s.minY)/s.cell), 0, s.rows-1) }
func (s *spatialIndex) cellAt(x, y float64) int {
	return s.rowOf(y)*s.cols + s.colOf(x)
}

// computeNeighbors fills every node's neighbor list from the grid in
// O(n·deg): a 3×3 cell scan per node instead of the old all-pairs loop.
// Candidates from different cells interleave, so each list is sorted to
// reproduce the ascending-ID order the O(n²) loop produced.
func (nw *Network) computeNeighbors() {
	s := nw.index
	if s == nil {
		return
	}
	r2 := nw.cfg.Range*nw.cfg.Range + 1e-9
	for _, a := range nw.nodes {
		cx, cy := s.colOf(a.X), s.rowOf(a.Y)
		var nbs []NodeID
		for gy := cy - 1; gy <= cy+1; gy++ {
			if gy < 0 || gy >= s.rows {
				continue
			}
			for gx := cx - 1; gx <= cx+1; gx++ {
				if gx < 0 || gx >= s.cols {
					continue
				}
				for _, id := range s.cells[gy*s.cols+gx] {
					if id == a.ID {
						continue
					}
					b := nw.nodes[id]
					dx, dy := a.X-b.X, a.Y-b.Y
					if dx*dx+dy*dy <= r2 {
						nbs = append(nbs, id)
					}
				}
			}
		}
		sort.Slice(nbs, func(i, j int) bool { return nbs[i] < nbs[j] })
		a.neighbors = nbs
	}
}

// nearest finds the live node closest to (x, y) by walking cell rings
// outward from the query's (clamped) cell. A node in a ring-k cell is at
// least (k-1)·cell away from the query — for queries outside the grid
// box this still holds because projecting onto the box only shrinks
// distances — so once bestD < R·cell after scanning ring R, no unscanned
// node (ring ≥ R+1, distance ≥ R·cell) can beat or tie it. Distances use
// math.Hypot and ties break to the lower ID, matching the brute-force
// scan bit for bit.
func (s *spatialIndex) nearest(nw *Network, x, y float64) *Node {
	cx, cy := s.colOf(x), s.rowOf(y)
	maxR := cx // ring radius that covers the whole grid from (cx, cy)
	for _, v := range [3]int{s.cols - 1 - cx, cy, s.rows - 1 - cy} {
		if v > maxR {
			maxR = v
		}
	}
	var best *Node
	bestD := math.Inf(1)
	for r := 0; r <= maxR; r++ {
		best, bestD = s.scanRing(nw, cx, cy, r, x, y, best, bestD)
		if best != nil && bestD < float64(r)*s.cell {
			break
		}
	}
	return best
}

// scanRing visits the cells at Chebyshev distance exactly r from
// (cx, cy), updating the running best (distance, ID) minimum.
func (s *spatialIndex) scanRing(nw *Network, cx, cy, r int, x, y float64, best *Node, bestD float64) (*Node, float64) {
	for gy := cy - r; gy <= cy+r; gy++ {
		if gy < 0 || gy >= s.rows {
			continue
		}
		for gx := cx - r; gx <= cx+r; gx++ {
			if gx < 0 || gx >= s.cols {
				continue
			}
			if r > 0 && gx > cx-r && gx < cx+r && gy > cy-r && gy < cy+r {
				continue // interior cell, scanned in an earlier ring
			}
			for _, id := range s.cells[gy*s.cols+gx] {
				n := nw.nodes[id]
				if n.Down {
					continue
				}
				d := math.Hypot(n.X-x, n.Y-y)
				if d < bestD || (d == bestD && best != nil && id < best.ID) {
					best, bestD = n, d
				}
			}
		}
	}
	return best, bestD
}

// bruteNeighborCutoff is the node count below which Finalize computes
// neighbor lists with the all-pairs scan even when the grid index is
// built: at small n the O(n²) loop's tight body beats the grid's
// per-node 3×3 cell walk plus sort. The crossover depends on density —
// measured at ~150–200 nodes for sparse unit-grid density (the BENCH
// finalize sweep had the grid at 0.62x brute at n=100) and past 400 for
// dense topologies where neighbor lists are large — so 256 splits the
// gray zone. Both paths produce identical lists — same ascending-ID
// order, same radius test including the 1e-9 slack — so the cutoff is
// invisible to results (pinned by TestNeighborPathsAgreeAcrossCutoff).
const bruteNeighborCutoff = 256

// computeNeighborsBrute is the all-pairs neighbor loop: the path below
// bruteNeighborCutoff, and the reference the spatial tests check the
// grid index against.
func (nw *Network) computeNeighborsBrute() {
	r2 := nw.cfg.Range * nw.cfg.Range
	for _, a := range nw.nodes {
		for _, b := range nw.nodes {
			if a.ID == b.ID {
				continue
			}
			dx, dy := a.X-b.X, a.Y-b.Y
			if dx*dx+dy*dy <= r2+1e-9 {
				a.neighbors = append(a.neighbors, b.ID)
			}
		}
	}
}

// nearestBrute is the O(n) scan, used before Finalize builds the index
// and as the reference implementation in property tests.
func (nw *Network) nearestBrute(x, y float64) *Node {
	var best *Node
	bestD := math.Inf(1)
	for _, n := range nw.nodes {
		if n.Down {
			continue
		}
		d := math.Hypot(n.X-x, n.Y-y)
		if d < bestD {
			best, bestD = n, d
		}
	}
	return best
}
