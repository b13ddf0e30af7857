package nsim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"
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
	if center.Sent != 1 || nw.KindCounts()["ping"] != 1 {
		t.Errorf("sent = %d (pings %d), want 1: dead radio kept broadcasting", center.Sent, nw.KindCounts()["ping"])
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
// high-water keys and slab and resets the free list; one stopped by its
// time limit keeps the pending events.
func TestQuiescedQueueReleased(t *testing.T) {
	nw := New(Config{Seed: 1})
	n := nw.AddNode(0, 0)
	n.App = appFunc{onTimer: func(string) {}}
	nw.Finalize()
	for i := 0; i < 1000; i++ {
		n.SetTimer(Time(1+i%50), "t", nil)
	}
	nw.Run(25)
	q := &nw.queue
	if nw.Pending() == 0 || cap(q.keys) == 0 || cap(q.slab) == 0 || q.free == 0 {
		t.Fatalf("a time-limited run left %d events: key capacity %d, slab capacity %d, free head %d",
			nw.Pending(), cap(q.keys), cap(q.slab), q.free)
	}
	released := func() bool { return cap(q.keys) == 0 && cap(q.slab) == 0 && q.free == 0 }
	nw.Run(0)
	if !released() {
		t.Errorf("after quiescence the queue keeps key capacity %d, slab capacity %d, free head %d; want all 0",
			cap(q.keys), cap(q.slab), q.free)
	}
	n.SetTimer(1, "again", nil)
	nw.Run(0)
	if nw.EventsProcessed != 1001 || !released() {
		t.Errorf("rerun: %d events processed, queue released %v; want 1001 and true", nw.EventsProcessed, released())
	}
}

// TestEventQueueMatchesReference drives the queue with 100 k seeded,
// interleaved pushes and pops — same-tick bursts, per-hop delays,
// far-future timers and pushes behind the clock — against a reference
// kept stably sorted by (at, seq). Every pop must return the
// reference's head, with the payload pushed under that seq, so no live
// slot is ever handed out twice.
func TestEventQueueMatchesReference(t *testing.T) {
	const ops = 100_000
	r := rand.New(rand.NewSource(7))
	var q eventQueue
	var ref []qkey // slot holds nothing here; the payload carries seq
	var now Time
	var seq int64
	pushes, pops := 0, 0
	push := func(at Time) {
		pushes++
		seq++
		q.push(at, seq, simEvent{kind: evTimer, node: int32(seq), str: "k", data: seq})
		k := qkey{at: at, seq: seq}
		i := sort.Search(len(ref), func(i int) bool { return k.less(ref[i]) })
		ref = append(ref, qkey{})
		copy(ref[i+1:], ref[i:])
		ref[i] = k
	}
	for pushes+pops < ops {
		if len(q.keys) > 0 && (len(ref) > 2000 || r.Intn(2) == 0) {
			at, ev := q.pop()
			want := ref[0]
			ref = ref[1:]
			pops++
			if at != want.at || ev.data.(int64) != want.seq || int64(ev.node) != want.seq {
				t.Fatalf("pop %d: got (at %d, seq %v, node %d), want (at %d, seq %d)", pops, at, ev.data, ev.node, want.at, want.seq)
			}
			now = at
			continue
		}
		switch c := r.Intn(20); {
		case c < 2: // same-tick burst
			for i := r.Intn(16); i >= 0; i-- {
				push(now)
			}
		case c < 3: // far-future timer
			push(now + 6500 + Time(r.Intn(8)))
		case c < 4: // behind the clock (ScheduleAt without its clamp)
			push(now - Time(r.Intn(10)))
		default:
			push(now + Time(r.Intn(5)))
		}
	}
	for len(q.keys) > 0 {
		at, ev := q.pop()
		if at != ref[0].at || ev.data.(int64) != ref[0].seq {
			t.Fatalf("drain: got (at %d, seq %v), want (at %d, seq %d)", at, ev.data, ref[0].at, ref[0].seq)
		}
		ref = ref[1:]
	}
	if len(ref) != 0 {
		t.Fatalf("queue drained with %d reference events left", len(ref))
	}
}

// TestEventLayout pins the sizes the queue's cost rests on: a heap key
// is 24 B and an event in the slab at most 48 B.
func TestEventLayout(t *testing.T) {
	if k, e := unsafe.Sizeof(qkey{}), unsafe.Sizeof(simEvent{}); k != 24 || e > 48 {
		t.Errorf("qkey is %d B (want 24), simEvent %d B (want ≤ 48)", k, e)
	}
}

// TestRunUntilNeverRewindsClock: a limit below the current time must not
// move the clock back, or a timer armed afterwards fires before ticks
// the network already reached.
func TestRunUntilNeverRewindsClock(t *testing.T) {
	nw := New(Config{Seed: 1})
	n := nw.AddNode(0, 0)
	var fired []Time
	n.App = appFunc{onTimer: func(string) { fired = append(fired, nw.Now()) }}
	nw.Finalize()
	n.SetTimer(10, "a", nil)
	n.SetTimer(30, "b", nil)
	if got := nw.Run(20); got != 20 {
		t.Fatalf("Run(20) = %d, want 20", got)
	}
	if got := nw.Run(5); got != 20 {
		t.Fatalf("Run(5) after reaching 20 = %d, want 20", got)
	}
	n.SetTimer(1, "late", nil)
	nw.Run(0)
	if want := []Time{10, 21, 30}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Errorf("timers fired at %v, want %v", fired, want)
	}
}

// TestEventLoopAllocs: a 100 k-event run whose queue stays under 1 k
// events allocates only to grow the key heap and the slab — recycled
// slots cost nothing per event.
func TestEventLoopAllocs(t *testing.T) {
	const events, maxMallocs = 100_000, 64
	nw := New(Config{Seed: 3})
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			nw.AddNode(float64(x), float64(y))
		}
	}
	app := &relayApp{budget: events}
	for _, n := range nw.Nodes() {
		n.App = app
	}
	nw.Finalize()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nw.Run(0)
	runtime.ReadMemStats(&after)
	if nw.EventsProcessed < events || app.maxPending > 1000 {
		t.Fatalf("workload ran %d events with up to %d queued; want ≥ %d and ≤ 1000", nw.EventsProcessed, app.maxPending, events)
	}
	m := after.Mallocs - before.Mallocs
	t.Logf("%d events, up to %d queued, %d mallocs", nw.EventsProcessed, app.maxPending, m)
	if m > maxMallocs {
		t.Errorf("%d events made %d mallocs, want ≤ %d", nw.EventsProcessed, m, maxMallocs)
	}
}

// TestKindCountsAllocs: 100 k transmissions over 5 message kinds, and
// their deliveries, allocate nothing once the queue has grown — the
// per-kind counters are the slice New presized, and it never grows.
func TestKindCountsAllocs(t *testing.T) {
	nw := New(Config{Seed: 3})
	nw.AddNode(0, 0)
	nw.AddNode(0.5, 0)
	for _, n := range nw.Nodes() {
		n.App = nopApp{}
	}
	nw.Finalize()
	// Grow the queue (its growth is TestEventLoopAllocs') and keep it
	// from emptying, which would release its storage: a sentinel event
	// waits past every run below.
	for i := 0; i < 1000; i++ {
		nw.ScheduleAt(0, func() {})
	}
	nw.ScheduleAt(1<<40, func() {})
	nw.Run(1)
	kinds := []string{"store", "join", "result", "aggb", "aggp"}
	src := nw.Node(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for round := 0; round < 100; round++ {
		for i := 0; i < 1000; i++ {
			src.Send(1, kinds[i%len(kinds)], nil, 8+i%len(kinds))
		}
		nw.Run(nw.Now() + MaxDelay)
	}
	runtime.ReadMemStats(&after)
	if m := after.Mallocs - before.Mallocs; m != 0 {
		t.Errorf("100 k transmissions made %d mallocs, want 0", m)
	}
	if nw.Pending() != 1 {
		t.Fatalf("%d events pending after the rounds, want only the sentinel", nw.Pending())
	}
	if cap(nw.kinds) != kindCap {
		t.Errorf("kind counters grew to capacity %d, want %d", cap(nw.kinds), kindCap)
	}
	counts, bytes := nw.KindCounts(), nw.KindBytes()
	for i, k := range kinds {
		if counts[k] != 20_000 || bytes[k] != int64(20_000*(8+i)) {
			t.Errorf("%s: %d frames, %d bytes; want 20000, %d", k, counts[k], bytes[k], 20_000*(8+i))
		}
	}
}

// nopApp receives and ignores everything.
type nopApp struct{}

func (nopApp) Init(*Node)                       {}
func (nopApp) Receive(*Node, *Message)          {}
func (nopApp) Timer(*Node, string, interface{}) {}

// relayApp keeps a bounded queue busy: every node runs a timer chain,
// and each expiry sends one message to a neighbor, until the event
// budget is spent. It allocates nothing per event.
type relayApp struct {
	budget, maxPending int
}

func (a *relayApp) Init(n *Node) { n.SetTimer(Time(n.ID%4), "relay", nil) }

func (a *relayApp) Receive(n *Node, m *Message) { a.count(n) }

func (a *relayApp) Timer(n *Node, key string, data interface{}) {
	a.count(n)
	if a.budget > 0 {
		nb := n.Neighbors()
		n.Send(nb[a.budget%len(nb)], "relay", nil, 8)
		n.SetTimer(3, key, nil)
	}
}

func (a *relayApp) count(n *Node) {
	a.budget--
	if p := n.Network().Pending(); p > a.maxPending {
		a.maxPending = p
	}
}

// appFunc adapts a timer callback to the Handler interface.
type appFunc struct {
	onTimer func(key string)
}

func (a appFunc) Init(n *Node)                             {}
func (a appFunc) Receive(n *Node, m *Message)              {}
func (a appFunc) Timer(n *Node, key string, d interface{}) { a.onTimer(key) }
