package nsim

import (
	"math/rand"
	"testing"
)

// TestShardPartitionProperties: on random geometric topologies, the
// spatial partition must (a) assign every node to exactly one shard,
// (b) leave no shard empty, and (c) keep radio neighbors within
// adjacent shards — the invariant the cross-shard delivery buffering
// relies on.
func TestShardPartitionProperties(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(100)
		side := 1 + r.Float64()*9
		radio := 0.2 + r.Float64()*2
		k := 2 + r.Intn(7)
		nw := New(Config{Range: radio, Shards: k})
		for i := 0; i < n; i++ {
			nw.AddNode(r.Float64()*side, r.Float64()*side)
		}
		nw.Finalize()
		got := nw.ShardCount()
		if got == 0 {
			// The partitioner declined (too few index columns for two
			// stripes); the network stays single-threaded, which is a
			// valid outcome, not a property failure.
			return true
		}
		if got > k {
			t.Logf("seed %d: %d shards exceed the requested %d", seed, got, k)
			return false
		}
		counts := make([]int, got)
		for _, nd := range nw.nodes {
			if nd.sh == nil {
				t.Logf("seed %d: node %d unassigned", seed, nd.ID)
				return false
			}
			if nd.sh.id < 0 || nd.sh.id >= got {
				t.Logf("seed %d: node %d has shard %d out of [0,%d)", seed, nd.ID, nd.sh.id, got)
				return false
			}
			counts[nd.sh.id]++
		}
		total := 0
		for i, c := range counts {
			if c == 0 {
				t.Logf("seed %d: shard %d is empty", seed, i)
				return false
			}
			total += c
		}
		if total != n {
			t.Logf("seed %d: shard counts sum to %d, want %d", seed, total, n)
			return false
		}
		for _, a := range nw.nodes {
			for _, nb := range a.Neighbors() {
				d := a.sh.id - nw.nodes[nb].sh.id
				if d < -1 || d > 1 {
					t.Logf("seed %d: neighbors %d (shard %d) and %d (shard %d) span non-adjacent shards",
						seed, a.ID, a.sh.id, nb, nw.nodes[nb].sh.id)
					return false
				}
			}
		}
		return true
	}
	quickSeeded(t, prop, 40)
}

// tokenSrc emits `remaining` tokens toward node 1, one every 10 ticks.
type tokenSrc struct{ remaining int }

func (a *tokenSrc) Init(n *Node)                {}
func (a *tokenSrc) Receive(n *Node, m *Message) {}
func (a *tokenSrc) Timer(n *Node, key string, data interface{}) {
	if a.remaining <= 0 {
		return
	}
	a.remaining--
	n.Send(1, "tok", nil, 4)
	n.SetTimer(10, key, nil)
}

// tokenRelay forwards each token one hop down the line.
type tokenRelay struct{ got int }

func (a *tokenRelay) Init(n *Node) {}
func (a *tokenRelay) Receive(n *Node, m *Message) {
	a.got++
	if int(n.ID)+1 < n.net.Len() {
		n.Send(n.ID+1, "tok", nil, 4)
	}
}
func (a *tokenRelay) Timer(n *Node, key string, data interface{}) {}

// runTokenLine rides `tokens` tokens down an n-node line with fixed
// per-hop delay (MinDelay == MaxDelay, no loss, no skew: the run
// consumes no randomness, so sharded and single-threaded schedules
// must produce identical state, not merely equivalent state).
func runTokenLine(shards, n, tokens int) (*Network, []*tokenRelay) {
	nw := New(Config{Seed: 42, Range: 1.0, MinDelay: 3, MaxDelay: 3, Shards: shards})
	relays := make([]*tokenRelay, n)
	for i := 0; i < n; i++ {
		nd := nw.AddNode(float64(i)*0.9, 0)
		if i == 0 {
			nd.App = &tokenSrc{remaining: tokens}
		} else {
			relays[i] = &tokenRelay{}
			nd.App = relays[i]
		}
	}
	nw.Finalize()
	nw.Node(0).SetTimer(1, "tick", nil)
	nw.Run(0)
	return nw, relays
}

// TestShardedMatchesSingleThreadedWithoutRandomness: with every source
// of randomness pinned, the sharded scheduler must reproduce the
// single-threaded run's counters, per-node state and end time exactly.
func TestShardedMatchesSingleThreadedWithoutRandomness(t *testing.T) {
	const n, tokens = 24, 30
	ref, refRelays := runTokenLine(0, n, tokens)
	par, parRelays := runTokenLine(4, n, tokens)
	if par.ShardCount() < 2 {
		t.Fatalf("parallel run did not shard (ShardCount = %d)", par.ShardCount())
	}
	if ref.ShardCount() != 0 {
		t.Fatalf("reference run sharded (ShardCount = %d)", ref.ShardCount())
	}
	if ref.TotalSent != par.TotalSent || ref.TotalBytes != par.TotalBytes ||
		ref.TotalDropped != par.TotalDropped || ref.TotalRetries != par.TotalRetries {
		t.Errorf("totals diverged: ref sent=%d bytes=%d dropped=%d retries=%d, sharded sent=%d bytes=%d dropped=%d retries=%d",
			ref.TotalSent, ref.TotalBytes, ref.TotalDropped, ref.TotalRetries,
			par.TotalSent, par.TotalBytes, par.TotalDropped, par.TotalRetries)
	}
	if ref.EventsProcessed != par.EventsProcessed {
		t.Errorf("events processed: ref %d, sharded %d", ref.EventsProcessed, par.EventsProcessed)
	}
	if ref.Now() != par.Now() {
		t.Errorf("end time: ref %d, sharded %d", ref.Now(), par.Now())
	}
	for i := 1; i < n; i++ {
		if refRelays[i].got != parRelays[i].got {
			t.Errorf("relay %d: ref got %d tokens, sharded got %d", i, refRelays[i].got, parRelays[i].got)
		}
		a, b := ref.Node(NodeID(i)), par.Node(NodeID(i))
		if a.Sent != b.Sent || a.Received != b.Received || a.BytesIn != b.BytesIn || a.BytesOut != b.BytesOut {
			t.Errorf("node %d counters diverged: ref %+d/%d, sharded %d/%d", i, a.Sent, a.Received, b.Sent, b.Received)
		}
	}
	if ref.KindCounts["tok"] != par.KindCounts["tok"] || ref.KindBytes["tok"] != par.KindBytes["tok"] {
		t.Errorf("kind accounting diverged: ref %d/%d, sharded %d/%d",
			ref.KindCounts["tok"], ref.KindBytes["tok"], par.KindCounts["tok"], par.KindBytes["tok"])
	}
}

// TestShardDeathStopsDeliveries: a node killed by a global event (the
// serial phase) must stop receiving in every subsequent window — the
// per-shard delivery path re-checks Down at delivery time, so a death
// in one shard invalidates traffic from all of them.
func TestShardDeathStopsDeliveries(t *testing.T) {
	const n, tokens, dead = 12, 40, 6
	nw := New(Config{Seed: 7, Range: 1.0, MinDelay: 2, MaxDelay: 2, Shards: 3})
	relays := make([]*tokenRelay, n)
	for i := 0; i < n; i++ {
		nd := nw.AddNode(float64(i)*0.9, 0)
		if i == 0 {
			nd.App = &tokenSrc{remaining: tokens}
		} else {
			relays[i] = &tokenRelay{}
			nd.App = relays[i]
		}
	}
	nw.Finalize()
	if nw.ShardCount() < 2 {
		t.Fatalf("run did not shard (ShardCount = %d)", nw.ShardCount())
	}
	nw.Node(0).SetTimer(1, "tick", nil)
	nw.ScheduleAt(200, func() { nw.Node(dead).Down = true })
	nw.Run(0)
	if got := relays[dead-1].got; got != tokens {
		t.Errorf("node %d (before the death) got %d tokens, want all %d", dead-1, got, tokens)
	}
	after := relays[dead+1].got
	if after == 0 || after >= tokens {
		t.Errorf("node %d (past the death) got %d tokens, want some but not all %d", dead+1, after, tokens)
	}
	for i := dead + 2; i < n; i++ {
		if relays[i].got > after {
			t.Errorf("node %d got %d tokens, more than node %d's %d", i, relays[i].got, dead+1, after)
		}
	}
}
