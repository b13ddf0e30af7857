package routing

import (
	"math/rand"
	"testing"

	"repro/internal/nsim"
	"repro/internal/topo"
)

// TestEngineNearestCacheInvalidatesOnDeath: the per-point cache must
// serve hits while the cached node lives and recompute once it dies.
func TestEngineNearestCacheInvalidatesOnDeath(t *testing.T) {
	m := 5
	nw := topo.Grid(m, nsim.Config{Seed: 1})
	nw.Finalize()
	e := NewEngine(nw)
	first := e.NearestNode(2, 2)
	if first == nil || first.ID != topo.GridID(m, 2, 2) {
		t.Fatalf("nearest(2,2) = %v", first)
	}
	if again := e.NearestNode(2, 2); again.ID != first.ID {
		t.Fatalf("cache returned %d, want %d", again.ID, first.ID)
	}
	nw.Node(first.ID).Down = true
	after := e.NearestNode(2, 2)
	if after == nil || after.ID == first.ID {
		t.Fatalf("cache served a dead node: %v", after)
	}
	if after.ID != nw.NearestNode(2, 2).ID {
		t.Fatalf("recomputed nearest %d disagrees with network %d", after.ID, nw.NearestNode(2, 2).ID)
	}
}

// TestEngineAtTargetMatchesPackage: the cached termination test, with a
// walker's memo per target, agrees with the package function on every
// (node, target) pair, before and after deaths.
func TestEngineAtTargetMatchesPackage(t *testing.T) {
	m := 4
	nw := topo.Grid(m, nsim.Config{Seed: 2})
	nw.Finalize()
	e := NewEngine(nw)
	targets := [][2]float64{{0, 0}, {1.4, 2.2}, {3, 3}, {-1, 5}}
	memos := make([]Memo, len(targets))
	check := func() {
		t.Helper()
		for _, n := range nw.Nodes() {
			for i, tgt := range targets {
				got := e.AtTargetMemo(&memos[i], n.ID, tgt[0], tgt[1])
				want := AtTarget(nw, n.ID, tgt[0], tgt[1])
				if got != want {
					t.Fatalf("AtTarget(%d, %v) = %v, want %v", n.ID, tgt, got, want)
				}
			}
		}
	}
	check()
	nw.Node(topo.GridID(m, 0, 0)).Down = true
	nw.Node(topo.GridID(m, 3, 3)).Down = true
	check()
}

// TestEngineGreedyPathMatchesPackage: the engine's path, its target
// found through the nearest cache, is exactly the package's path, across
// many reuses of the same engine.
func TestEngineGreedyPathMatchesPackage(t *testing.T) {
	nw, err := topo.RandomGeometric(60, 8, 1.6, 5, nsim.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nw.Finalize()
	e := NewEngine(nw)
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		from := nsim.NodeID(r.Intn(nw.Len()))
		tx, ty := r.Float64()*8, r.Float64()*8
		want := GreedyPath(nw, from, tx, ty, 200)
		got := e.GreedyPath(from, tx, ty, 200)
		if len(got) != len(want) {
			t.Fatalf("trial %d: engine path %v, package path %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d hop %d: engine %d, package %d", trial, i, got[i], want[i])
			}
		}
	}
}

// TestAtTargetMemoIsTheCache drives AtTargetMemo and, on a twin engine
// over the same network, NearestNode through one random schedule: nodes go
// down and come back up (with and without an Invalidate after), targets
// are new or repeated, and walkers copy each other's memos. Every answer
// and the final Hits/Misses must be the twin's — the cache's answer,
// stale entries included, not the true nearest node.
func TestAtTargetMemoIsTheCache(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := 3 + r.Intn(4)
		nw := topo.Grid(m, nsim.Config{Seed: seed})
		nw.Finalize()
		memo, twin := NewEngine(nw), NewEngine(nw)
		targets := [][2]float64{{0, 0}}
		walkers := make([]Memo, 6)
		for step := 0; step < 5000; step++ {
			switch k := r.Intn(20); {
			case k < 3:
				n := nw.Node(nsim.NodeID(r.Intn(nw.Len())))
				n.Down = !n.Down
			case k == 3:
				memo.Invalidate()
				twin.Invalidate()
			case k == 4:
				walkers[r.Intn(len(walkers))] = walkers[r.Intn(len(walkers))]
			case k == 5:
				targets = append(targets, [2]float64{r.Float64() * float64(m), r.Float64() * float64(m)})
			}
			w := &walkers[r.Intn(len(walkers))]
			tgt := targets[r.Intn(len(targets))]
			if r.Intn(3) == 0 {
				tgt = targets[len(targets)-1]
			}
			id := nsim.NodeID(r.Intn(nw.Len()))
			if c, ok := twin.nearest[tgt]; ok && r.Intn(2) == 0 {
				id = c // ask about the cache's own node as often as any other
			}
			got := memo.AtTargetMemo(w, id, tgt[0], tgt[1])
			n := twin.NearestNode(tgt[0], tgt[1])
			if want := n != nil && n.ID == id; got != want {
				t.Fatalf("seed %d step %d: AtTargetMemo(%d, %v) = %v, NearestNode says %v", seed, step, id, tgt, got, want)
			}
		}
		if memo.Hits != twin.Hits || memo.Misses != twin.Misses {
			t.Fatalf("seed %d: memo engine counted %d hits %d misses, twin %d %d", seed, memo.Hits, memo.Misses, twin.Hits, twin.Misses)
		}
	}
}
