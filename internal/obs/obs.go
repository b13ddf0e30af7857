// Package obs is the zero-dependency observability layer for the
// deductive sensor-network stack: a counter/gauge registry threaded
// through the simulator, routing, node runtime, and eval hot paths,
// plus a fixed-capacity trace ring buffer (trace.go).
//
// The design splits metrics into two families so the hot paths never
// pay for bookkeeping they do not need:
//
//   - Live counters (Counter, CounterVec) are pre-resolved handles
//     incremented on the enabled path with a single atomic add. The
//     nil handle is a valid no-op, so a component whose Observe method
//     was never called pays exactly one predictable nil check per
//     increment site — no branch on a config struct, no interface
//     dispatch, no allocation.
//
//   - Providers and gauges (a gauge is a provider that emits one name)
//     are sampled only at Snapshot time. Metrics a component already
//     tracks in plain fields (simulator message totals, per-node
//     memory) are exposed through a provider callback instead of being
//     double-counted on the hot path, which keeps Snapshot values
//     exactly equal to the legacy fields they replace.
//
// Snapshot flattens everything into a sorted name → value map; counter
// names are dotted paths ("nsim.messages", "core.derivations.out/2")
// documented in the README.
package obs

import (
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotone atomic counter. The zero value is ready to
// use, and the nil pointer is a valid disabled handle: Add on nil is a
// single branch and no memory traffic, which is what instrumented hot
// loops pay when observability is off.
type Counter struct{ v int64 }

// Add increments the counter by d. No-op on a nil receiver.
func (c *Counter) Add(d int64) {
	if c != nil {
		atomic.AddInt64(&c.v, d)
	}
}

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Registry names and collects counters, gauges, and bulk providers.
// All methods are safe for concurrent use; the nil registry is a valid
// disabled registry whose Counter/CounterVec lookups return nil
// handles.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	hists     map[string]*Histogram
	providers []func(emit func(name string, v int64))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter returns the live counter registered under name, creating it
// on first use. The same name always yields the same handle, so
// components resolve handles once at Observe time and share totals.
// Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers a callback sampled at Snapshot time under name: a
// provider that emits one name. No-op on a nil registry.
func (r *Registry) Gauge(name string, fn func() int64) {
	if fn != nil {
		r.Provide(func(emit func(string, int64)) { emit(name, fn()) })
	}
}

// Provide registers a bulk provider invoked at Snapshot time. A
// provider emits any number of (name, value) pairs; components use it
// to expose metrics they already track in plain fields without paying
// anything on the hot path. Providers run in registration order, so
// when two emit the same name the later registration wins. No-op on a
// nil registry.
func (r *Registry) Provide(fn func(emit func(name string, v int64))) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.providers = append(r.providers, fn)
}

// CounterVec pre-resolves per-label counter handles under a common
// prefix — the per-predicate and per-kind dimensions. With(label)
// names the counter "<prefix>.<label>" in the shared registry.
type CounterVec struct {
	r      *Registry
	prefix string
	mu     sync.Mutex
	m      map[string]*Counter
}

// CounterVec returns a handle cache for counters named
// "<prefix>.<label>". Returns nil on a nil registry; With on a nil vec
// returns a nil (no-op) counter.
func (r *Registry) CounterVec(prefix string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r: r, prefix: prefix, m: make(map[string]*Counter)}
}

// With returns the counter for label, resolving and caching the handle
// on first use. Returns nil on a nil vec.
func (v *CounterVec) With(label string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.m[label]
	if c == nil {
		c = v.r.Counter(v.prefix + "." + label)
		v.m[label] = c
	}
	return c
}

// Snapshot is a point-in-time view of every registered metric: live
// counters, gauges, and provider emissions flattened into one map.
type Snapshot struct {
	Counters map[string]int64
}

// Snapshot flattens one Families sample; it returns an empty snapshot
// on a nil registry.
func (r *Registry) Snapshot() Snapshot { return r.Families().Snapshot() }

// Snapshot flattens the sample into a single name → value map.
// Histograms become "<name>.count/.sum/.max/.p50/.p95/.p99" plus
// cumulative "<name>.le_<bound>" bucket counters (only .count while
// empty). On a name collision a gauge or provider emission overwrites
// a histogram-derived name, which overwrites a live counter — by
// convention the families use disjoint names.
func (f Families) Snapshot() Snapshot {
	s := Snapshot{Counters: make(map[string]int64, len(f.Counters)+len(f.Gauges))}
	maps.Copy(s.Counters, f.Counters)
	for name, h := range f.Hists {
		s.Counters[name+".count"] = h.Count
		if h.Count == 0 {
			continue
		}
		s.Counters[name+".sum"] = h.Sum
		s.Counters[name+".max"] = h.Max
		s.Counters[name+".p50"] = h.quantile(0.50)
		s.Counters[name+".p95"] = h.quantile(0.95)
		s.Counters[name+".p99"] = h.quantile(0.99)
		var cum int64
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			s.Counters[name+".le_"+strconv.FormatInt(b, 10)] = cum
		}
	}
	maps.Copy(s.Counters, f.Gauges)
	return s
}

// HistView is the full state of one histogram at Families() time:
// copies of the bounds and per-bucket counts (the last count is the
// overflow bucket) plus the scalar aggregates.
type HistView struct {
	Bounds []int64
	Counts []int64 // len(Bounds)+1; last is the overflow bucket
	Count  int64
	Sum    int64
	Max    int64
}

// quantile returns the inclusive upper bound of the bucket holding the
// q-quantile observation (0 <= q <= 1), clamped to Max so a sparse top
// bucket never reports an estimate above the largest observation.
// Interior quantiles whose rank lands in the overflow bucket clamp to
// the overflow boundary (the last finite bound): the histogram cannot
// localize observations beyond it, and reporting Max would promote the
// single largest outlier (p100) to every high quantile. quantile(1) is
// exactly Max, and Snapshot exports ".max" separately. A histogram
// with no finite bounds reports Max for every quantile. Returns 0 on
// an empty view.
func (v HistView) quantile(q float64) int64 {
	if v.Count == 0 {
		return 0
	}
	rank := max(int64(q*float64(v.Count)), 1)
	if rank >= v.Count {
		return v.Max
	}
	var cum int64
	for i, c := range v.Counts {
		cum += c
		if cum >= rank {
			if i < len(v.Bounds) {
				return min(v.Max, v.Bounds[i])
			}
			break
		}
	}
	// Overflow bucket: clamp at its boundary rather than reporting Max.
	if len(v.Bounds) > 0 {
		return v.Bounds[len(v.Bounds)-1]
	}
	return v.Max
}

// Families is a typed view of the registry for exporters that need to
// distinguish metric kinds — Snapshot flattens everything into one
// counter map, which loses the counter/gauge/histogram split an
// encoder like Prometheus text format wants to preserve.
type Families struct {
	Counters map[string]int64
	Gauges   map[string]int64 // gauge callbacks plus provider emissions
	Hists    map[string]HistView
}

// Families samples every registered metric, keeping the kinds apart:
// live counters under Counters, gauge and provider samples under
// Gauges, and full histogram states under Hists. It is the registry's
// one sampling pass — Snapshot flattens its result. The registry is
// copied under its lock and sampled outside it: providers may call
// back into code that takes its own locks or (pathologically)
// registers new metrics. Returns empty families on a nil registry.
func (r *Registry) Families() Families {
	f := Families{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]int64),
		Hists:    make(map[string]HistView),
	}
	if r == nil {
		return f
	}
	r.mu.Lock()
	counters := maps.Clone(r.counters)
	hists := maps.Clone(r.hists)
	providers := slices.Clone(r.providers)
	r.mu.Unlock()

	for name, c := range counters {
		f.Counters[name] = c.Value()
	}
	emit := func(name string, v int64) { f.Gauges[name] = v }
	for _, fn := range providers {
		fn(emit)
	}
	for name, h := range hists {
		f.Hists[name] = h.view()
	}
	return f
}

// Get returns the value recorded under name, or 0 if absent.
func (s Snapshot) Get(name string) int64 { return s.Counters[name] }

// Names returns all recorded metric names in sorted order.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Prefix returns the metrics whose names start with prefix, keyed by
// the remainder of the name (the prefix is stripped).
func (s Snapshot) Prefix(prefix string) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range s.Counters {
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			out[name[len(prefix):]] = v
		}
	}
	return out
}

// Diff returns a snapshot holding s minus prev for every name present
// in s — the per-interval deltas for trajectory tracking.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	d := Snapshot{Counters: make(map[string]int64, len(s.Counters))}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	return d
}
