package nsim

import (
	"testing"
)

// echoApp counts messages and replies to "ping" with "pong".
type echoApp struct {
	inits  int
	pings  int
	pongs  int
	timers []string
}

func (a *echoApp) Init(n *Node) { a.inits++ }
func (a *echoApp) Receive(n *Node, m *Message) {
	switch m.Kind {
	case "ping":
		a.pings++
		n.Send(m.Src, "pong", nil, 8)
	case "pong":
		a.pongs++
	}
}
func (a *echoApp) Timer(n *Node, key string, data interface{}) {
	a.timers = append(a.timers, key)
}

func twoNodeNet(cfg Config) (*Network, *echoApp, *echoApp) {
	nw := New(cfg)
	a, b := &echoApp{}, &echoApp{}
	na := nw.AddNode(0, 0)
	nb := nw.AddNode(1, 0)
	na.App = a
	nb.App = b
	nw.Finalize()
	return nw, a, b
}

func TestNeighborsWithinRange(t *testing.T) {
	nw := New(Config{Range: 1.0})
	n0 := nw.AddNode(0, 0)
	n1 := nw.AddNode(1, 0)
	n2 := nw.AddNode(3, 0)
	nw.Finalize()
	if len(n0.Neighbors()) != 1 || n0.Neighbors()[0] != n1.ID {
		t.Errorf("n0 neighbors = %v", n0.Neighbors())
	}
	if len(n2.Neighbors()) != 0 {
		t.Errorf("n2 neighbors = %v", n2.Neighbors())
	}
}

func TestSendDeliverAndCounters(t *testing.T) {
	nw, a, b := twoNodeNet(Config{Seed: 1})
	nw.Node(0).Send(1, "ping", nil, 16)
	nw.Run(0)
	if b.pings != 1 || a.pongs != 1 {
		t.Errorf("pings=%d pongs=%d", b.pings, a.pongs)
	}
	if nw.TotalSent != 2 {
		t.Errorf("TotalSent = %d", nw.TotalSent)
	}
	if nw.TotalBytes != 24 {
		t.Errorf("TotalBytes = %d", nw.TotalBytes)
	}
	if nw.KindCounts()["ping"] != 1 || nw.KindCounts()["pong"] != 1 {
		t.Errorf("KindCounts = %v", nw.KindCounts())
	}
	n0 := nw.Node(0)
	if n0.Sent != 1 || n0.Received != 1 || n0.BytesOut != 16 || n0.BytesIn != 8 {
		t.Errorf("node0 counters: %+v", n0)
	}
}

func TestSendToNonNeighborPanics(t *testing.T) {
	nw := New(Config{})
	nw.AddNode(0, 0)
	nw.AddNode(5, 5)
	nw.Finalize()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	nw.Node(0).Send(1, "x", nil, 1)
}

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	nw := New(Config{Seed: 2})
	apps := make([]*echoApp, 5)
	// Star: center at origin, 4 nodes around it.
	for i := range apps {
		apps[i] = &echoApp{}
	}
	c := nw.AddNode(0, 0)
	c.App = apps[0]
	for i, pos := range [][2]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		n := nw.AddNode(pos[0], pos[1])
		n.App = apps[i+1]
	}
	nw.Finalize()
	c.Broadcast("ping", nil, 4)
	nw.Run(0)
	for i := 1; i < 5; i++ {
		if apps[i].pings != 1 {
			t.Errorf("leaf %d pings = %d", i, apps[i].pings)
		}
	}
	if nw.TotalSent < 4 {
		t.Errorf("TotalSent = %d", nw.TotalSent)
	}
}

func TestMessageLoss(t *testing.T) {
	nw, _, b := twoNodeNet(Config{LossRate: 1.0, Seed: 3})
	nw.Node(0).Send(1, "ping", nil, 4)
	nw.Run(0)
	if b.pings != 0 {
		t.Error("message should be lost at 100% loss")
	}
	if nw.TotalDropped != 1 {
		t.Errorf("TotalDropped = %d", nw.TotalDropped)
	}
}

func TestPartialLossStatistics(t *testing.T) {
	nw, _, b := twoNodeNet(Config{LossRate: 0.3, Seed: 7})
	for i := 0; i < 1000; i++ {
		nw.Node(0).Send(1, "ping", nil, 1)
	}
	// Suppress replies blowing up: b replies each time; run and count.
	nw.Run(0)
	got := float64(b.pings) / 1000
	if got < 0.6 || got > 0.8 {
		t.Errorf("delivery rate = %.2f, want ~0.7", got)
	}
}

func TestTimers(t *testing.T) {
	nw, a, _ := twoNodeNet(Config{Seed: 4})
	nw.Node(0).SetTimer(10, "k1", nil)
	nw.Node(0).SetTimer(5, "k2", nil)
	nw.Run(0)
	if len(a.timers) != 2 || a.timers[0] != "k2" || a.timers[1] != "k1" {
		t.Errorf("timers fired = %v", a.timers)
	}
}

func TestClockSkewBounded(t *testing.T) {
	cfg := Config{MaxSkew: 10, Seed: 5}
	nw := New(cfg)
	for i := 0; i < 50; i++ {
		n := nw.AddNode(float64(i), 0)
		n.App = &echoApp{}
	}
	nw.Finalize()
	for _, a := range nw.Nodes() {
		for _, b := range nw.Nodes() {
			d := a.LocalTime() - b.LocalTime()
			if d < 0 {
				d = -d
			}
			if d > 10 {
				t.Fatalf("skew between %d and %d is %d > MaxSkew", a.ID, b.ID, d)
			}
		}
	}
}

func TestBoundedDelays(t *testing.T) {
	nw, _, b := twoNodeNet(Config{Seed: 6})
	start := nw.Now()
	nw.Node(0).Send(1, "ping", nil, 1)
	end := nw.Run(0)
	if b.pings != 1 {
		t.Fatal("not delivered")
	}
	// ping + pong: two hops of [1, 4] ticks each.
	el := end - start
	if el < 2 || el > 8 {
		t.Errorf("elapsed = %d, want within [2, 8]", el)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Time, int64) {
		nw := New(Config{LossRate: 0.2, MaxSkew: 4, Seed: 99})
		apps := []*echoApp{{}, {}, {}}
		for i := range apps {
			n := nw.AddNode(float64(i), 0)
			n.App = apps[i]
		}
		nw.Finalize()
		for i := 0; i < 100; i++ {
			nw.Node(0).Send(1, "ping", nil, 3)
			nw.Node(2).Send(1, "ping", nil, 3)
		}
		end := nw.Run(0)
		return end, nw.TotalSent
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", t1, s1, t2, s2)
	}
}

func TestDownNodesDropTraffic(t *testing.T) {
	nw, _, b := twoNodeNet(Config{Seed: 8})
	nw.Node(1).Down = true
	nw.Node(0).Send(1, "ping", nil, 1)
	nw.Run(0)
	if b.pings != 0 {
		t.Error("down node received traffic")
	}
	nw.Node(0).Down = true
	nw.Node(0).Send(1, "ping", nil, 1) // silently ignored
	if nw.TotalSent != 1 {
		t.Errorf("down node transmitted: %d", nw.TotalSent)
	}
}

func TestScheduleAtAndRunUntil(t *testing.T) {
	nw, a, _ := twoNodeNet(Config{Seed: 9})
	fired := 0
	nw.ScheduleAt(100, func() { fired++ })
	nw.ScheduleAt(200, func() { fired++ })
	nw.Run(150)
	if fired != 1 {
		t.Errorf("fired = %d at t=150", fired)
	}
	nw.Run(0)
	if fired != 2 {
		t.Errorf("fired = %d at end", fired)
	}
	_ = a
}

func TestNearestNodeSkipsDown(t *testing.T) {
	nw := New(Config{})
	nw.AddNode(0, 0)
	nw.AddNode(2, 0)
	nw.Finalize()
	nw.Node(0).Down = true
	n := nw.NearestNode(0.1, 0)
	if n == nil || n.ID != 1 {
		t.Errorf("nearest = %v", n)
	}
}

func TestMaxNodeLoad(t *testing.T) {
	nw, _, _ := twoNodeNet(Config{Seed: 10})
	nw.Node(0).Send(1, "ping", nil, 1)
	nw.Run(0)
	// node1: 1 recv + 1 send (pong) = 2; node0: 1 send + 1 recv = 2.
	if nw.MaxNodeLoad() != 2 {
		t.Errorf("MaxNodeLoad = %d", nw.MaxNodeLoad())
	}
}

func TestEnergyDepletionKillsNode(t *testing.T) {
	cfg := Config{Seed: 20, EnergyBudget: 10, TxCostBase: 3, RxCostBase: 2}
	nw := New(cfg)
	a, b := &echoApp{}, &echoApp{}
	na := nw.AddNode(0, 0)
	nb := nw.AddNode(1, 0)
	na.App = a
	nb.App = b
	nw.Finalize()
	if na.Energy != 10 {
		t.Fatalf("budget not applied: %v", na.Energy)
	}
	// Each ping costs sender 3; the pong reply costs the peer 3 and the
	// sender 2 on receive. After a few rounds node 0 depletes.
	for i := 0; i < 10; i++ {
		na.Send(1, "ping", nil, 0)
		nw.Run(0)
	}
	if !na.Down && !nb.Down {
		t.Error("some node should have depleted")
	}
	if nw.Deaths == 0 || nw.FirstDeath == 0 {
		t.Errorf("death accounting: deaths=%d first=%d", nw.Deaths, nw.FirstDeath)
	}
}

func TestEnergyPerByteCosts(t *testing.T) {
	cfg := Config{Seed: 21, EnergyBudget: 100, TxCostBase: 1, TxCostByte: 0.5, RxCostBase: 1, RxCostByte: 0.25}
	nw := New(cfg)
	a, b := &echoApp{}, &echoApp{}
	na := nw.AddNode(0, 0)
	nb := nw.AddNode(1, 0)
	na.App = a
	nb.App = b
	nw.Finalize()
	na.Send(1, "ping", nil, 8) // tx: 1 + 4 = 5; rx at b: 1 + 2 = 3
	nw.Run(0)
	// b replies pong size 8: b pays 5 tx, a pays 3 rx.
	if got := na.Energy; got != 100-5-3 {
		t.Errorf("a energy = %v, want 92", got)
	}
	if got := nb.Energy; got != 100-3-5 {
		t.Errorf("b energy = %v, want 92", got)
	}
}

func TestEnergyDisabledByDefault(t *testing.T) {
	nw, _, _ := twoNodeNet(Config{Seed: 22})
	nw.Node(0).Send(1, "ping", nil, 100)
	nw.Run(0)
	if nw.Deaths != 0 || nw.Node(0).Down {
		t.Error("no energy model should mean no deaths")
	}
}

func TestDeadNodeStopsRelaying(t *testing.T) {
	// A line a-b-c where b dies: traffic through b ceases (the
	// "disconnecting the server" effect).
	cfg := Config{Seed: 23, EnergyBudget: 4, TxCostBase: 10} // one tx kills
	nw := New(cfg)
	apps := []*echoApp{{}, {}, {}}
	for i := range apps {
		n := nw.AddNode(float64(i), 0)
		n.App = apps[i]
	}
	nw.Finalize()
	nw.Node(1).Send(2, "ping", nil, 0) // b transmits once and dies
	nw.Run(0)
	if !nw.Node(1).Down {
		t.Fatal("b should be dead")
	}
	sent := nw.TotalSent
	nw.Node(1).Send(0, "ping", nil, 0) // dead node cannot send
	nw.Run(0)
	if nw.TotalSent != sent {
		t.Error("dead node transmitted")
	}
}
