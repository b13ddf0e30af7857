package obs

import (
	"slices"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram of int64 observations. Bounds
// are inclusive upper bounds in ascending order; an observation larger
// than the last bound lands in an implicit overflow bucket. Negative
// observations clamp into the first bucket (settle-latency deltas can
// go slightly negative under clock skew).
//
// Like Counter, the nil histogram is a valid disabled handle: Observe
// on nil is a single branch and no memory traffic, so instrumented hot
// loops pay one predictable nil check when histograms are off. The
// enabled path is two atomic adds plus a CAS max — no allocation.
type Histogram struct {
	bounds []int64
	counts []int64 // len(bounds)+1; last is the overflow bucket
	sum    int64
	max    int64
	n      int64
}

// NewHistogram builds a standalone histogram (registry-less users).
// bounds must be ascending; an empty bounds slice yields a single
// overflow bucket (count/sum/max only).
func NewHistogram(bounds []int64) *Histogram {
	return &Histogram{bounds: slices.Clone(bounds), counts: make([]int64, len(bounds)+1)}
}

// Observe records one observation. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.sum, v)
	atomic.AddInt64(&h.n, 1)
	for {
		cur := atomic.LoadInt64(&h.max)
		if v <= cur && atomic.LoadInt64(&h.n) > 1 {
			return
		}
		if atomic.CompareAndSwapInt64(&h.max, cur, v) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.n)
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.sum)
}

// Max returns the largest observation (0 on nil or before the first
// observation).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.max)
}

// Buckets returns copies of the bounds and per-bucket counts; the
// counts slice has one more entry than bounds (the overflow bucket).
func (h *Histogram) Buckets() (bounds, counts []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = make([]int64, len(h.bounds))
	copy(bounds, h.bounds)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = atomic.LoadInt64(&h.counts[i])
	}
	return bounds, counts
}

// view copies the histogram's state. Count is read first: Observe
// bumps a bucket before the count, so the copied buckets always cover
// Count observations.
func (h *Histogram) view() HistView {
	n := h.Count()
	bounds, counts := h.Buckets()
	return HistView{Bounds: bounds, Counts: counts, Count: n, Sum: h.Sum(), Max: h.Max()}
}

// Quantile returns the inclusive upper bound of the bucket holding the
// q-quantile observation (0 <= q <= 1), clamped to Max and, for an
// interior quantile past the last bound, to that bound (the rules are
// on HistView.quantile, which Snapshot's .p50/.p95/.p99 use too).
// Returns 0 on nil or an empty histogram.
func (h *Histogram) Quantile(q float64) int64 { return h.view().quantile(q) }

// ExpBuckets builds n ascending bounds starting at start and growing by
// factor (the usual power-of-two latency ladder).
func ExpBuckets(start, factor int64, n int) []int64 {
	out := make([]int64, 0, n)
	v := start
	for i := 0; i < n; i++ {
		out = append(out, v)
		v *= factor
	}
	return out
}

// Histogram returns the live histogram registered under name, creating
// it with the given bounds on first use (later calls return the same
// handle; their bounds argument is ignored). Returns nil — the no-op
// handle — on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}
