package snlog

import (
	"math/rand"
	"testing"
)

var strandSchemes = []struct {
	name   string
	scheme Scheme
}{
	{"NaiveBroadcast", NaiveBroadcast},
	{"LocalStorage", LocalStorage},
	{"Centralized", Centralized},
	{"Centroid", Centroid},
	{"Perpendicular", Perpendicular},
}

// strandedRun runs flood_faults_test.go's 24-insertion workload of the
// ra/rb join — the same generator, without its fault schedule and its
// deletions — and returns the store, join and result walkers greedy
// routing stranded.
func strandedRun(t *testing.T, topo Topology, scheme Scheme, seed int64) [3]int64 {
	t.Helper()
	c, err := Deploy(topo, floodJoinSrc, WithScheme(scheme), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 24; i++ {
		at, node := int64(10+7*i), r.Intn(c.Size())
		tup := NewTuple("ra", Int(int64(r.Intn(6))), Int(int64(r.Intn(3))))
		if i%2 == 1 {
			tup = NewTuple("rb", Int(int64(r.Intn(3))), Int(int64(r.Intn(6))))
		}
		if err := c.InjectAt(at, node, tup); err != nil {
			t.Fatal(err)
		}
	}
	c.Run()
	s := c.Snapshot()
	return [3]int64{s.Get("routing.stranded.store"), s.Get("routing.stranded.join"), s.Get("routing.stranded.result")}
}

// No walker strands on a grid, under any scheme. On the sparse
// Random(40, 6, 1.6) greedy routing strands some: the sums per scheme
// over seeds 1–6 (logged with -v) are EXPERIMENTS.md's table, and ROADMAP
// item 15's findings. Stranding is counted, not fixed, so only that the
// counter fires there is checked.
func TestStrandedCounters(t *testing.T) {
	var total int64
	for _, s := range strandSchemes {
		var sum [3]int64
		for seed := int64(1); seed <= 6; seed++ {
			if seed <= 3 {
				if got := strandedRun(t, Grid(6), s.scheme, seed); got != [3]int64{} {
					t.Errorf("%s on Grid(6), seed %d: stranded store/join/result = %v, want none", s.name, seed, got)
				}
			}
			got := strandedRun(t, Random(40, 6, 1.6), s.scheme, seed)
			for k := range sum {
				sum[k] += got[k]
				total += got[k]
			}
		}
		t.Logf("%-14s on Random(40, 6, 1.6), seeds 1-6: stranded store %d, join %d, result %d", s.name, sum[0], sum[1], sum[2])
	}
	if total == 0 {
		t.Error("no walker stranded on Random(40, 6, 1.6): the counter does not fire")
	}
}
