package obs

import (
	"sync"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 99, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 5625 || h.Max() != 5000 {
		t.Fatalf("count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("bounds=%v counts=%v", bounds, counts)
	}
	// Bounds are inclusive: 10 lands in the first bucket, 11 in the
	// second; 5000 overflows.
	want := []int64{2, 2, 1, 1}
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, c, want[i], counts)
		}
	}
}

func TestHistogramNilIsNoOp(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram should report zeros")
	}
	if b, c := h.Buckets(); b != nil || c != nil {
		t.Fatal("nil histogram should have no buckets")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 4)) // 1 2 4 8
	for v := int64(1); v <= 8; v++ {
		h.Observe(v)
	}
	if q := h.Quantile(0.5); q != 4 {
		t.Fatalf("p50 = %d, want bucket bound 4", q)
	}
	if q := h.Quantile(1.0); q != 8 {
		t.Fatalf("p100 = %d, want 8", q)
	}
	if q := h.Quantile(0.0); q != 1 {
		t.Fatalf("p0 = %d, want first bucket bound 1", q)
	}
	// Overflow observations report Max only at q=1; interior quantiles
	// clamp at the overflow boundary (the last finite bound).
	h.Observe(1000)
	if q := h.Quantile(1.0); q != 1000 {
		t.Fatalf("p100 with overflow = %d, want the max 1000", q)
	}
	if NewHistogram(nil).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

// An interior quantile whose rank lands in the overflow bucket must
// clamp to the overflow boundary, not report Max: Max is p100, and
// promoting the largest outlier to p99 overstates the tail by however
// far the outlier sits beyond the ladder.
func TestHistogramQuantileClampsAtOverflowBoundary(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 4)) // 1 2 4 8
	for v := int64(1); v <= 8; v++ {
		h.Observe(v)
	}
	h.Observe(1000)
	h.Observe(2000) // two overflow observations: p95 rank lands there
	if q := h.Quantile(0.95); q != 8 {
		t.Fatalf("p95 = %d, want the overflow boundary 8", q)
	}
	if q := h.Quantile(1.0); q != 2000 {
		t.Fatalf("p100 = %d, want the max 2000", q)
	}
	// A boundless histogram has no boundary to clamp to: every
	// quantile reports Max.
	b := NewHistogram(nil)
	b.Observe(7)
	b.Observe(9000)
	if q := b.Quantile(0.5); q != 9000 {
		t.Fatalf("boundless p50 = %d, want max 9000", q)
	}
}

// A sparse top bucket must not report a quantile above the largest
// observation.
func TestHistogramQuantileClampsToMax(t *testing.T) {
	h := NewHistogram([]int64{64, 512})
	h.Observe(70) // lands in the 512 bucket
	if q := h.Quantile(0.5); q != 70 {
		t.Fatalf("p50 = %d, want clamped to max 70", q)
	}
}

func TestHistogramNegativeClampsToFirstBucket(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	h.Observe(-5)
	_, counts := h.Buckets()
	if counts[0] != 1 {
		t.Fatalf("negative observation should land in the first bucket: %v", counts)
	}
}

func TestBucketLadders(t *testing.T) {
	exp := ExpBuckets(64, 2, 4)
	for i, want := range []int64{64, 128, 256, 512} {
		if exp[i] != want {
			t.Fatalf("ExpBuckets = %v", exp)
		}
	}
}

func TestRegistryHistogramHandles(t *testing.T) {
	var nilReg *Registry
	if nilReg.Histogram("x", nil) != nil {
		t.Fatal("nil registry should hand out the nil no-op histogram")
	}
	reg := NewRegistry()
	a := reg.Histogram("h", ExpBuckets(1, 2, 3))
	b := reg.Histogram("h", nil) // later bounds are ignored
	if a != b {
		t.Fatal("same name should return the same handle")
	}
	a.Observe(3)
	a.Observe(40)
	snap := reg.Snapshot()
	if snap.Get("h.count") != 2 || snap.Get("h.sum") != 43 || snap.Get("h.max") != 40 {
		t.Fatalf("snapshot = %v", snap)
	}
	// Cumulative le_ counters: 3 <= 4, both <= overflow-free bounds up
	// to the last bucket; 40 overflows every bound.
	if snap.Get("h.le_2") != 0 || snap.Get("h.le_4") != 1 {
		t.Fatalf("le counters: le_2=%d le_4=%d", snap.Get("h.le_2"), snap.Get("h.le_4"))
	}
}

func TestHistogramConcurrency(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 10))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(seed + i%700)
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	_, counts := h.Buckets()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 8000 {
		t.Fatalf("bucket counts sum to %d, want 8000", total)
	}
}
