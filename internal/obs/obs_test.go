package obs

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("Value = %d, want 4", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter Value = %d, want 0", got)
	}
	var r *Registry
	if r.Counter("x") != nil {
		t.Fatal("nil registry must hand out nil counters")
	}
	if r.CounterVec("p") != nil {
		t.Fatal("nil registry must hand out nil vecs")
	}
	r.Gauge("g", func() int64 { return 1 })
	r.Provide(func(emit func(string, int64)) { emit("p", 1) })
	if n := len(r.Snapshot().Counters); n != 0 {
		t.Fatalf("nil registry snapshot has %d entries", n)
	}
	var v *CounterVec
	v.With("a").Add(1)
	var tr *Trace
	tr.Record(Event{})
	if tr.Len() != 0 || tr.Total() != 0 {
		t.Fatal("nil trace must stay empty")
	}
}

// The disabled-observability contract: incrementing through nil
// handles allocates nothing. The E1 hot-loop guard in the root package
// builds on this.
func TestNilHandlesZeroAllocs(t *testing.T) {
	var c *Counter
	var tr *Trace
	if got := testing.AllocsPerRun(100, func() {
		c.Add(1)
		tr.Record(Event{Kind: EvSend})
	}); got != 0 {
		t.Fatalf("disabled path allocates %v per op, want 0", got)
	}
}

func TestRegistrySharedHandles(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("nsim.messages")
	b := r.Counter("nsim.messages")
	if a != b {
		t.Fatal("same name must yield the same handle")
	}
	a.Add(2)
	b.Add(3)
	if got := r.Snapshot().Get("nsim.messages"); got != 5 {
		t.Fatalf("shared counter = %d, want 5", got)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("core.derivations")
	v.With("out/2").Add(4)
	v.With("out/2").Inc()
	v.With("path/2").Inc()
	s := r.Snapshot()
	if got := s.Get("core.derivations.out/2"); got != 5 {
		t.Fatalf("out/2 = %d, want 5", got)
	}
	per := s.Prefix("core.derivations.")
	if len(per) != 2 || per["path/2"] != 1 {
		t.Fatalf("Prefix view = %v", per)
	}
}

func TestGaugesAndProviders(t *testing.T) {
	r := NewRegistry()
	depth := int64(7)
	r.Gauge("nsim.queue_depth", func() int64 { return depth })
	r.Provide(func(emit func(string, int64)) {
		emit("nsim.bytes", 100)
		emit("nsim.dropped", 2)
	})
	s := r.Snapshot()
	if s.Get("nsim.queue_depth") != 7 || s.Get("nsim.bytes") != 100 || s.Get("nsim.dropped") != 2 {
		t.Fatalf("snapshot = %v", s.Counters)
	}
	depth = 9
	if got := r.Snapshot().Get("nsim.queue_depth"); got != 9 {
		t.Fatalf("gauge resampled = %d, want 9", got)
	}
	names := s.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

// Snapshot is Families flattened: every kind lands under its own name
// (histograms under their suffixes), and on a collision a gauge or
// provider overwrites a histogram-derived name, which overwrites a
// live counter. Among gauges and providers the later registration wins.
func TestSnapshotFlattensFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	r.Gauge("g", func() int64 { return 2 })
	r.Provide(func(emit func(string, int64)) { emit("p", 3) })
	h := r.Histogram("h", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	r.Histogram("empty", []int64{1})

	r.Counter("h.max").Add(11) // counter vs histogram
	r.Counter("cg").Add(12)    // counter vs gauge
	r.Gauge("cg", func() int64 { return 13 })
	r.Counter("cp").Add(14)                      // counter vs provider
	r.Gauge("h.sum", func() int64 { return 15 }) // gauge vs histogram
	r.Gauge("gp", func() int64 { return 16 })    // gauge, then provider
	r.Provide(func(emit func(string, int64)) { emit("cp", 17); emit("gp", 18) })
	r.Provide(func(emit func(string, int64)) { emit("pg", 19) }) // provider, then gauge
	r.Gauge("pg", func() int64 { return 20 })

	want := map[string]int64{
		"c": 1, "g": 2, "p": 3, "empty.count": 0,
		"h.count": 2, "h.sum": 15, "h.max": 50, "h.p50": 10, "h.p95": 10, "h.p99": 10,
		"h.le_10": 1, "h.le_100": 2,
		"cg": 13, "cp": 17, "gp": 18, "pg": 20,
	}
	got := r.Snapshot().Counters
	if len(got) != len(want) {
		t.Errorf("snapshot has %d names, want %d: %v", len(got), len(want), got)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	// The typed view keeps the colliding kinds apart.
	f := r.Families()
	if f.Counters["cg"] != 12 || f.Gauges["cg"] != 13 || f.Counters["h.max"] != 11 || f.Hists["h"].Max != 50 {
		t.Errorf("families = %+v", f)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(10)
	before := r.Snapshot()
	c.Add(4)
	d := r.Snapshot().Diff(before)
	if got := d.Get("x"); got != 4 {
		t.Fatalf("diff = %d, want 4", got)
	}
}

func TestCounterConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Get("shared"); got != 8000 {
		t.Fatalf("concurrent total = %d, want 8000", got)
	}
}

func TestFamilies(t *testing.T) {
	var nilReg *Registry
	nf := nilReg.Families()
	if len(nf.Counters) != 0 || len(nf.Gauges) != 0 || len(nf.Hists) != 0 {
		t.Fatal("nil registry should yield empty families")
	}

	r := NewRegistry()
	r.Counter("serve.queries").Add(3)
	r.Gauge("nodes.live", func() int64 { return 12 })
	r.Provide(func(emit func(string, int64)) { emit("nsim.messages", 40) })
	h := r.Histogram("serve.query_latency", []int64{10, 100})
	h.Observe(5)
	h.Observe(500)

	f := r.Families()
	if f.Counters["serve.queries"] != 3 {
		t.Fatalf("counters = %v", f.Counters)
	}
	if f.Gauges["nodes.live"] != 12 || f.Gauges["nsim.messages"] != 40 {
		t.Fatalf("gauges = %v", f.Gauges)
	}
	hv, ok := f.Hists["serve.query_latency"]
	if !ok || hv.Count != 2 || hv.Sum != 505 || hv.Max != 500 {
		t.Fatalf("hist view = %+v", hv)
	}
	if len(hv.Bounds) != 2 || len(hv.Counts) != 3 {
		t.Fatalf("hist shape = %+v", hv)
	}
	if hv.Counts[0] != 1 || hv.Counts[1] != 0 || hv.Counts[2] != 1 {
		t.Fatalf("hist counts = %v", hv.Counts)
	}
	// Histograms live only under Hists — Families keeps the kinds apart,
	// unlike Snapshot's flattened suffix names.
	if _, ok := f.Counters["serve.query_latency.count"]; ok {
		t.Fatal("histogram leaked into the counter family")
	}
}
