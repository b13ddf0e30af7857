package snlog

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// joinSrcAPI is the two-stream join used by the observability tests.
const joinSrcAPI = `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
`

func injectPairs(t *testing.T, c *Cluster, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		if err := c.InjectAt(int64(i*7), (i*13)%c.Size(), NewTuple("ra", Int(int64(i)), Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
		if err := c.InjectAt(int64(i*7+3), (i*17+5)%c.Size(), NewTuple("rb", Int(int64(i)), Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTraceEquivalenceE1 pins three equivalences on the E1-style
// two-stream join: (1) attaching the trace ring buffer does not
// perturb the run; (2) Stats — now a view over Snapshot — equals the
// simulator/engine fields it used to scrape; (3) the trace's
// aggregated counts equal the registry counters.
func TestTraceEquivalenceE1(t *testing.T) {
	legacy, err := Deploy(Grid(6), joinSrcAPI, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	injectPairs(t, legacy, 10)
	legacy.Run()

	observed, err := Deploy(Grid(6), joinSrcAPI, WithSeed(42), WithTrace(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	injectPairs(t, observed, 10)
	observed.Run()

	// (1) Byte-identical run: same messages, bytes, results.
	if legacy.Network.TotalSent != observed.Network.TotalSent ||
		legacy.Network.TotalBytes != observed.Network.TotalBytes {
		t.Fatalf("observed run diverged: %d/%d msgs, %d/%d bytes",
			observed.Network.TotalSent, legacy.Network.TotalSent,
			observed.Network.TotalBytes, legacy.Network.TotalBytes)
	}
	lr, or := legacy.Results("out/2"), observed.Results("out/2")
	if len(lr) != len(or) || len(or) == 0 {
		t.Fatalf("results diverged: %d vs %d", len(or), len(lr))
	}
	for i := range lr {
		if !lr[i].Equal(or[i]) {
			t.Fatalf("result %d diverged: %v vs %v", i, or[i], lr[i])
		}
	}

	// (2) Stats view over Snapshot equals the legacy field scrape.
	st := observed.Stats()
	nw := observed.Network
	if st.Messages != nw.TotalSent || st.Bytes != nw.TotalBytes || st.Dropped != nw.TotalDropped {
		t.Fatalf("Stats diverged from simulator fields: %+v", st)
	}
	if st.MaxNodeLoad != nw.MaxNodeLoad() {
		t.Fatalf("MaxNodeLoad = %d, want %d", st.MaxNodeLoad, nw.MaxNodeLoad())
	}
	maxMem, total := 0, 0
	for _, n := range nw.Nodes() {
		m := observed.Engine.StoredReplicas(n.ID) + observed.Engine.DerivationEntries(n.ID)
		maxMem, total = max(maxMem, m), total+m
	}
	if avgMem := float64(total) / float64(nw.Len()); st.MaxMemory != maxMem || st.AvgMemory != avgMem {
		t.Fatalf("memory stats diverged: (%d, %f) vs (%d, %f)", st.MaxMemory, st.AvgMemory, maxMem, avgMem)
	}
	for k, v := range nw.KindCounts() {
		if st.ByKind[k] != v {
			t.Fatalf("ByKind[%s] = %d, want %d", k, st.ByKind[k], v)
		}
	}

	// (3) Trace totals equal counter totals. TotalKinds counts the
	// run's lifetime, so the equality holds at any ring capacity.
	agg := observed.Trace().TotalKinds()
	snap := observed.Snapshot()
	pairs := map[string]struct {
		kind    obs.EventKind
		counter string
	}{
		"send":   {obs.EvSend, "nsim.messages"},
		"recv":   {obs.EvRecv, "nsim.received"},
		"drop":   {obs.EvDrop, "nsim.dropped"},
		"derive": {obs.EvDerive, "core.derivations"},
		"settle": {obs.EvSettle, "core.settles"},
	}
	for name, p := range pairs {
		if agg[p.kind] != snap.Get(p.counter) {
			t.Errorf("%s: trace has %d, counter %s = %d", name, agg[p.kind], p.counter, snap.Get(p.counter))
		}
	}
	if agg[obs.EvSend] == 0 || agg[obs.EvDerive] == 0 {
		t.Fatal("trace recorded no sends or derivations")
	}
}

// TestTraceEquivalenceLossy covers the drop/retry hooks under loss.
func TestTraceEquivalenceLossy(t *testing.T) {
	c, err := Deploy(Grid(6), joinSrcAPI,
		WithSeed(7), WithLoss(0.2), WithRetries(3), WithTrace(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	injectPairs(t, c, 10)
	c.Run()
	snap := c.Snapshot()
	agg := c.Trace().TotalKinds()
	if snap.Get("nsim.dropped") == 0 || snap.Get("nsim.retries") == 0 {
		t.Fatalf("lossy run recorded no drops/retries: %v", snap.Counters)
	}
	if agg[obs.EvDrop] != snap.Get("nsim.dropped") {
		t.Fatalf("drop trace %d != counter %d", agg[obs.EvDrop], snap.Get("nsim.dropped"))
	}
	if agg[obs.EvSend] != snap.Get("nsim.messages") {
		t.Fatalf("send trace %d != counter %d", agg[obs.EvSend], snap.Get("nsim.messages"))
	}
	st := c.Stats()
	if st.Retries != c.Network.TotalRetries || st.Dropped != c.Network.TotalDropped {
		t.Fatalf("Stats retry/drop view diverged: %+v", st)
	}
}

func TestWriteTrace(t *testing.T) {
	c, err := Deploy(Grid(4), joinSrcAPI, WithSeed(3), WithTrace(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	injectPairs(t, c, 4)
	c.Run()
	var buf bytes.Buffer
	n, err := c.WriteTrace(&buf, TraceFilter{Node: AnyNode, Kinds: []obs.EventKind{obs.EvSend}})
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != c.Snapshot().Get("nsim.messages") {
		t.Fatalf("exported %d send lines, want %d", n, c.Snapshot().Get("nsim.messages"))
	}
	if got := int64(bytes.Count(buf.Bytes(), []byte("\n"))); got != int64(n) {
		t.Fatalf("wrote %d lines for %d events", got, n)
	}
}

func TestInjectErrors(t *testing.T) {
	c, err := Deploy(Grid(4), joinSrcAPI, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"node out of range", c.Inject(99, NewTuple("ra", Int(1), Int(2))), "out of range"},
		{"negative node", c.Inject(-1, NewTuple("ra", Int(1), Int(2))), "out of range"},
		{"derived predicate", c.Inject(0, NewTuple("out", Int(1), Int(2))), "derived predicate"},
		{"unknown predicate", c.Inject(0, NewTuple("nosuch", Int(1))), "not mentioned"},
		{"arity mismatch", c.Inject(0, NewTuple("ra", Int(1))), "arity mismatch"},
		{"non-ground", c.Inject(0, Tuple{Pred: "ra/2", Args: []Term{Int(1), Var("X")}}), "not ground"},
		{"InjectAt out of range", c.InjectAt(10, 400, NewTuple("ra", Int(1), Int(2))), "out of range"},
		{"DeleteAt out of range", c.DeleteAt(10, 400, NewTuple("ra", Int(1), Int(2))), "out of range"},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
			continue
		}
		if !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, tc.err, tc.want)
		}
	}
	// Nothing above should have scheduled anything.
	if c.Network.Pending() != 0 {
		t.Fatalf("invalid injections scheduled %d events", c.Network.Pending())
	}
	// A valid injection still works.
	if err := c.Inject(0, NewTuple("ra", Int(1), Int(1))); err != nil {
		t.Fatalf("valid injection rejected: %v", err)
	}
	// DeleteAt of a never-injected tuple is a validation pass but a
	// fire-time no-op; deleting through an unknown predicate errors.
	if err := c.DeleteAt(5, 0, NewTuple("nosuch", Int(1))); err == nil {
		t.Error("DeleteAt of unknown predicate should error")
	}
}

// TestSnapshotWithoutTrace: every deployment has a registry even
// without WithTrace, and Trace() is nil.
func TestSnapshotWithoutTrace(t *testing.T) {
	c, err := Deploy(Grid(4), joinSrcAPI, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	injectPairs(t, c, 4)
	c.Run()
	if c.Trace() != nil {
		t.Fatal("trace attached without WithTrace")
	}
	if _, err := c.WriteTrace(&bytes.Buffer{}, TraceFilter{Node: AnyNode}); err == nil {
		t.Fatal("WriteTrace without a trace should error")
	}
	snap := c.Snapshot()
	if snap.Get("nsim.messages") != c.Network.TotalSent || snap.Get("nsim.messages") == 0 {
		t.Fatalf("snapshot messages = %d, want %d", snap.Get("nsim.messages"), c.Network.TotalSent)
	}
	if snap.Get("core.derivations") == 0 {
		t.Fatal("no derivations counted")
	}
}
