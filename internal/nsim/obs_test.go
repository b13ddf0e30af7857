package nsim

import (
	"testing"

	"repro/internal/obs"
)

// observedNet builds the two-node echo network with the observability
// layer attached before Finalize.
func observedNet(cfg Config) (*Network, *obs.Registry, *obs.Trace) {
	nw := New(cfg)
	a, b := &echoApp{}, &echoApp{}
	na := nw.AddNode(0, 0)
	nb := nw.AddNode(1, 0)
	na.App = a
	nb.App = b
	reg := obs.NewRegistry()
	tr := obs.NewTrace(1 << 12)
	nw.Observe(reg, tr)
	nw.Finalize()
	return nw, reg, tr
}

func TestObserveCountersMatchFields(t *testing.T) {
	nw, reg, tr := observedNet(Config{Seed: 1})
	nw.Node(0).Send(1, "ping", nil, 16)
	nw.Run(0)

	snap := reg.Snapshot()
	if snap.Get("nsim.messages") != nw.TotalSent || nw.TotalSent != 2 {
		t.Fatalf("messages = %d, TotalSent = %d", snap.Get("nsim.messages"), nw.TotalSent)
	}
	if snap.Get("nsim.bytes") != nw.TotalBytes {
		t.Fatalf("bytes = %d, want %d", snap.Get("nsim.bytes"), nw.TotalBytes)
	}
	if snap.Get("nsim.messages.ping") != 1 || snap.Get("nsim.messages.pong") != 1 {
		t.Fatalf("per-kind counters: %v", snap.Counters)
	}
	var recv int64
	for _, n := range nw.Nodes() {
		recv += n.Received
	}
	if snap.Get("nsim.received") != recv {
		t.Fatalf("received = %d, want %d", snap.Get("nsim.received"), recv)
	}
	if snap.Get("nsim.events") != nw.EventsProcessed || snap.Get("nsim.nodes") != 2 {
		t.Fatalf("events/nodes: %v", snap.Counters)
	}

	agg := tr.TotalKinds()
	if agg[obs.EvSend] != nw.TotalSent || agg[obs.EvRecv] != recv || agg[obs.EvDrop] != 0 {
		t.Fatalf("trace aggregate %v vs sent=%d recv=%d", agg, nw.TotalSent, recv)
	}
	evs := tr.Events()
	if evs[0].Kind != obs.EvSend || evs[0].Node != 0 || evs[0].Peer != 1 || evs[0].Pred != "ping" || evs[0].Size != 16 {
		t.Fatalf("first event = %+v", evs[0])
	}
}

func TestObserveLossAndRetries(t *testing.T) {
	nw, reg, tr := observedNet(Config{Seed: 5, LossRate: 0.5, Retries: 4})
	for i := 0; i < 20; i++ {
		nw.Node(0).Send(1, "ping", nil, 8)
	}
	nw.Run(0)
	snap := reg.Snapshot()
	if snap.Get("nsim.dropped") != nw.TotalDropped || nw.TotalDropped == 0 {
		t.Fatalf("dropped = %d, TotalDropped = %d", snap.Get("nsim.dropped"), nw.TotalDropped)
	}
	if snap.Get("nsim.retries") != nw.TotalRetries || nw.TotalRetries == 0 {
		t.Fatalf("retries = %d, TotalRetries = %d", snap.Get("nsim.retries"), nw.TotalRetries)
	}
	// Each dropped attempt that was re-tried is a retry; totals bind
	// sends = first attempts + retries.
	agg := tr.TotalKinds()
	if agg[obs.EvDrop] != nw.TotalDropped || agg[obs.EvSend] != nw.TotalSent {
		t.Fatalf("trace %v vs dropped=%d sent=%d", agg, nw.TotalDropped, nw.TotalSent)
	}
}

// TestObserveDoesNotPerturb pins that attaching the observability
// layer changes no simulation outcome: same rng stream, same traffic.
func TestObserveDoesNotPerturb(t *testing.T) {
	run := func(observe bool) (int64, int64, Time) {
		nw := New(Config{Seed: 9, LossRate: 0.3, MaxSkew: 4})
		a, b := &echoApp{}, &echoApp{}
		nw.AddNode(0, 0).App = a
		nw.AddNode(1, 0).App = b
		if observe {
			nw.Observe(obs.NewRegistry(), obs.NewTrace(256))
		}
		nw.Finalize()
		for i := 0; i < 10; i++ {
			nw.Node(0).Send(1, "ping", nil, 8)
		}
		end := nw.Run(0)
		return nw.TotalSent, nw.TotalDropped, end
	}
	s1, d1, e1 := run(false)
	s2, d2, e2 := run(true)
	if s1 != s2 || d1 != d2 || e1 != e2 {
		t.Fatalf("observed run diverged: (%d,%d,%d) vs (%d,%d,%d)", s2, d2, e2, s1, d1, e1)
	}
}
