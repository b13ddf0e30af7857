package nsim

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// chattyApp drives a workload that exercises timers, unicast, broadcast
// and loss: every node broadcasts on Init, echoes received "chat"
// messages back to the sender a bounded number of times, and re-arms a
// timer chain.
type chattyApp struct {
	echoes int
	events []string
}

func (a *chattyApp) Init(n *Node) {
	n.Broadcast("chat", nil, 12)
	n.SetTimer(3, "tick", 0)
}

func (a *chattyApp) Receive(n *Node, m *Message) {
	a.events = append(a.events, m.Kind)
	if m.Kind == "chat" && a.echoes < 8 {
		a.echoes++
		n.Send(m.Src, "chat", nil, 12)
	}
}

func (a *chattyApp) Timer(n *Node, key string, data interface{}) {
	a.events = append(a.events, key)
	if c := data.(int); c < 5 {
		n.SetTimer(2, key, c+1)
	}
}

func runChatty() (*Network, []*chattyApp) {
	nw := New(Config{Seed: 42, LossRate: 0.1, MaxSkew: 6, Retries: 1})
	apps := make([]*chattyApp, 0, 9)
	for q := 0; q < 3; q++ {
		for p := 0; p < 3; p++ {
			a := &chattyApp{}
			apps = append(apps, a)
			nw.AddNode(float64(p), float64(q)).App = a
		}
	}
	nw.Finalize()
	nw.Run(0)
	return nw, apps
}

// TestChattyRunGolden pins the event queue's schedule on the chatty
// workload: final clock, event count, counters and an FNV-1a hash of
// the per-node event traces. The constants were recorded at commit
// 3105227, where the typed value heap and the original closure heap
// (container/heap over *event, since deleted) both produced them.
func TestChattyRunGolden(t *testing.T) {
	nw, apps := runChatty()
	h := fnv.New64a()
	for i, a := range apps {
		fmt.Fprintf(h, "%d:", i)
		for _, ev := range a.events {
			h.Write([]byte(ev))
			h.Write([]byte{0})
		}
		h.Write([]byte{'\n'})
	}
	got := fmt.Sprintf("now=%d events=%d sent=%d bytes=%d dropped=%d trace=%#x",
		nw.Now(), nw.EventsProcessed, nw.TotalSent, nw.TotalBytes, nw.TotalDropped, h.Sum64())
	const want = "now=14 events=146 sent=102 bytes=1224 dropped=10 trace=0x3459a21559023705"
	if got != want {
		t.Errorf("chatty run moved:\n got %s\nwant %s", got, want)
	}
}

// TestTimerSkipsDownNode: a timer armed on a node that goes down before
// it fires must not fire.
func TestTimerSkipsDownNode(t *testing.T) {
	nw, a, _ := twoNodeNet(Config{Seed: 1})
	nw.Node(0).SetTimer(5, "late", nil)
	nw.Node(0).Down = true
	nw.Run(0)
	for _, k := range a.timers {
		if k == "late" {
			t.Fatal("timer fired on a down node")
		}
	}
}

// TestTransmitStopsAtDeathBoundary pins the ARQ death-boundary fix: a
// sender whose energy depletes on a lost attempt must not keep retrying
// (and accounting) while Down.
func TestTransmitStopsAtDeathBoundary(t *testing.T) {
	nw := New(Config{
		Seed: 1, LossRate: 1.0, Retries: 5,
		EnergyBudget: 10, TxCostBase: 6, // dies on the 2nd attempt
	})
	a := nw.AddNode(0, 0)
	b := nw.AddNode(1, 0)
	a.App, b.App = &echoApp{}, &echoApp{}
	nw.Finalize()
	a.Send(b.ID, "ping", nil, 4)
	nw.Run(0)
	// Attempt 1 costs 6 (energy 4 left), attempt 2 costs 6 (energy -2,
	// node dies, attempt lost) — and that must be the last attempt, not
	// the 6 the retry budget would allow.
	if a.Sent != 2 || nw.TotalSent != 2 {
		t.Errorf("sent = %d (total %d), want 2: ARQ kept retrying past the death boundary", a.Sent, nw.TotalSent)
	}
	if !a.Down || nw.Deaths != 1 {
		t.Errorf("sender should have died exactly once (down=%v deaths=%d)", a.Down, nw.Deaths)
	}
}

// TestBroadcastStopsAtDeathBoundary: a broadcast whose sender dies
// partway through the neighbor list stops transmitting, and the killing
// transmission itself (which survived loss) is still delivered.
func TestBroadcastStopsAtDeathBoundary(t *testing.T) {
	nw := New(Config{
		Seed: 2, EnergyBudget: 5, TxCostBase: 6, // first transmission kills
	})
	center := nw.AddNode(1, 1)
	apps := make([]*echoApp, 3)
	for i := range apps {
		apps[i] = &echoApp{}
	}
	nw.AddNode(0, 1).App = apps[0]
	nw.AddNode(1, 0).App = apps[1]
	nw.AddNode(2, 1).App = apps[2]
	center.App = &echoApp{}
	nw.Finalize()
	center.Broadcast("ping", nil, 4)
	nw.Run(0)
	if center.Sent != 1 || nw.KindCounts["ping"] != 1 {
		t.Errorf("sent = %d (pings %d), want 1: dead radio kept broadcasting", center.Sent, nw.KindCounts["ping"])
	}
	delivered := 0
	for _, a := range apps {
		delivered += a.pings
	}
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1 (the killing transmission completes)", delivered)
	}
}

// TestTypedQueueOrdering: same-tick events dispatch in scheduling order
// across all three event types.
func TestTypedQueueOrdering(t *testing.T) {
	nw := New(Config{Seed: 1})
	var order []string
	n := nw.AddNode(0, 0)
	n.App = appFunc{onTimer: func(key string) { order = append(order, key) }}
	nw.Finalize()
	nw.ScheduleAt(5, func() { order = append(order, "f1") })
	n.SetTimer(5, "t1", nil)
	nw.ScheduleAt(5, func() { order = append(order, "f2") })
	n.SetTimer(2, "t0", nil)
	nw.Run(0)
	want := []string{"t0", "f1", "t1", "f2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestQuiescedQueueReleased: a run that drains the queue drops its
// high-water backing array; one stopped by its time limit keeps the
// pending events.
func TestQuiescedQueueReleased(t *testing.T) {
	nw := New(Config{Seed: 1})
	n := nw.AddNode(0, 0)
	n.App = appFunc{onTimer: func(string) {}}
	nw.Finalize()
	for i := 0; i < 1000; i++ {
		n.SetTimer(Time(1+i%50), "t", nil)
	}
	nw.Run(25)
	if nw.Pending() == 0 || cap(nw.queue) == 0 {
		t.Fatalf("a time-limited run left %d events in a queue of capacity %d", nw.Pending(), cap(nw.queue))
	}
	nw.Run(0)
	if cap(nw.queue) != 0 {
		t.Errorf("after quiescence the queue keeps capacity %d, want 0", cap(nw.queue))
	}
	n.SetTimer(1, "again", nil)
	nw.Run(0)
	if nw.EventsProcessed != 1001 || cap(nw.queue) != 0 {
		t.Errorf("rerun: %d events processed, queue capacity %d; want 1001 and 0", nw.EventsProcessed, cap(nw.queue))
	}
}

// appFunc adapts a timer callback to the Handler interface.
type appFunc struct {
	onTimer func(key string)
}

func (a appFunc) Init(n *Node)                             {}
func (a appFunc) Receive(n *Node, m *Message)              {}
func (a appFunc) Timer(n *Node, key string, d interface{}) { a.onTimer(key) }
