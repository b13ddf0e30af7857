// Package baseline implements procedural shortest-path-tree protocols
// that bracket the paper's Example 3 comparison (Section II-B): the
// Kairos-style centralized approach — gather the entire topology at the
// root with `get_available_nodes`-like remote reads, compute the tree
// centrally, disseminate parent assignments — and an efficient
// hand-written distributed Bellman-Ford flood. The deductive programs
// logicH/logicJ are measured against both in experiment E5.
package baseline

import (
	"sort"

	"repro/internal/nsim"
	"repro/internal/routing"
)

// SPTResult is the outcome of a shortest-path-tree protocol run.
type SPTResult struct {
	// Depth maps node -> tree depth (-1 if unreached).
	Depth map[nsim.NodeID]int
	// Parent maps node -> parent in the tree (root maps to itself).
	Parent map[nsim.NodeID]nsim.NodeID
	// Messages and Bytes are the protocol's total communication cost.
	Messages int64
	Bytes    int64
}

// --- Kairos-style centralized SPT ---

type kairosMsg struct {
	// topology report: one node's adjacency list.
	From  nsim.NodeID
	Edges []nsim.NodeID
	// assignment: the root's computed depth+parent for To.
	To     nsim.NodeID
	Depth  int
	Parent nsim.NodeID
	Assign bool
	// geographic routing state
	TX, TY  float64
	Visited []nsim.NodeID
}

type kairosApp struct {
	root     nsim.NodeID
	topology map[nsim.NodeID][]nsim.NodeID // at root
	expected int
	depth    map[nsim.NodeID]int
	parent   map[nsim.NodeID]nsim.NodeID
}

func (k *kairosApp) Init(n *nsim.Node) {
	// Every node reports its adjacency to the root (the remote data
	// access Kairos abstracts; each report is a multi-hop unicast).
	msg := &kairosMsg{From: n.ID, Edges: append([]nsim.NodeID(nil), n.Neighbors()...)}
	root := n.Network().Node(k.root)
	msg.TX, msg.TY = root.X, root.Y
	msg.Visited = []nsim.NodeID{n.ID}
	k.forward(n, msg)
}

func (k *kairosApp) forward(n *nsim.Node, msg *kairosMsg) {
	var target nsim.NodeID
	if msg.Assign {
		target = msg.To
	} else {
		target = k.root
	}
	if n.ID == target {
		k.deliver(n, msg)
		return
	}
	next, ok := routing.NextHopGreedyAvoid(n.Network(), n.ID, msg.TX, msg.TY, msg.Visited)
	if !ok {
		return // stranded
	}
	msg.Visited = append(msg.Visited, next)
	size := 8
	if !msg.Assign {
		size += 4 * len(msg.Edges)
	}
	n.Send(next, "kairos", msg, size)
}

func (k *kairosApp) Receive(n *nsim.Node, m *nsim.Message) {
	k.forward(n, m.Payload.(*kairosMsg))
}

func (k *kairosApp) deliver(n *nsim.Node, msg *kairosMsg) {
	if msg.Assign {
		k.depth[n.ID] = msg.Depth
		k.parent[n.ID] = msg.Parent
		return
	}
	// At the root: accumulate topology; when complete, compute BFS and
	// disseminate assignments.
	k.topology[msg.From] = msg.Edges
	if len(k.topology) < k.expected {
		return
	}
	depth, parent := bfs(k.root, k.topology)
	for id, d := range depth {
		if id == k.root {
			k.depth[id] = 0
			k.parent[id] = id
			continue
		}
		dst := n.Network().Node(id)
		am := &kairosMsg{To: id, Depth: d, Parent: parent[id], Assign: true,
			TX: dst.X, TY: dst.Y, Visited: []nsim.NodeID{n.ID}}
		k.forward(n, am)
	}
}

func bfs(root nsim.NodeID, adj map[nsim.NodeID][]nsim.NodeID) (map[nsim.NodeID]int, map[nsim.NodeID]nsim.NodeID) {
	depth := map[nsim.NodeID]int{root: 0}
	parent := map[nsim.NodeID]nsim.NodeID{root: root}
	queue := []nsim.NodeID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		nbrs := append([]nsim.NodeID(nil), adj[v]...)
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		for _, w := range nbrs {
			if _, ok := depth[w]; !ok {
				depth[w] = depth[v] + 1
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return depth, parent
}

// RunKairosSPT runs the centralized protocol on a fresh network built by
// build (which must return a non-finalized network) rooted at root.
func RunKairosSPT(nw *nsim.Network, root nsim.NodeID) SPTResult {
	app := &kairosApp{
		root:     root,
		topology: make(map[nsim.NodeID][]nsim.NodeID),
		expected: nw.Len(),
		depth:    make(map[nsim.NodeID]int),
		parent:   make(map[nsim.NodeID]nsim.NodeID),
	}
	for _, n := range nw.Nodes() {
		n.App = app
	}
	nw.Finalize()
	nw.Run(0)
	return collect(nw, app.depth, app.parent)
}

// --- distributed Bellman-Ford SPT ---

type bfMsg struct {
	Depth  int
	Sender nsim.NodeID
}

type bfApp struct {
	root   nsim.NodeID
	depth  map[nsim.NodeID]int
	parent map[nsim.NodeID]nsim.NodeID
}

func (b *bfApp) Init(n *nsim.Node) {
	if n.ID == b.root {
		b.depth[n.ID] = 0
		b.parent[n.ID] = n.ID
		n.Broadcast("bf", &bfMsg{Depth: 0, Sender: n.ID}, 6)
	}
}

func (b *bfApp) Receive(n *nsim.Node, m *nsim.Message) {
	msg := m.Payload.(*bfMsg)
	nd := msg.Depth + 1
	if cur, ok := b.depth[n.ID]; ok && cur <= nd {
		return
	}
	b.depth[n.ID] = nd
	b.parent[n.ID] = msg.Sender
	n.Broadcast("bf", &bfMsg{Depth: nd, Sender: n.ID}, 6)
}

func (b *bfApp) Timer(n *nsim.Node, key string, data interface{}) {}

func (k *kairosApp) Timer(n *nsim.Node, key string, data interface{}) {}

// RunBellmanFordSPT runs the distributed flooding protocol.
func RunBellmanFordSPT(nw *nsim.Network, root nsim.NodeID) SPTResult {
	app := &bfApp{
		root:   root,
		depth:  make(map[nsim.NodeID]int),
		parent: make(map[nsim.NodeID]nsim.NodeID),
	}
	for _, n := range nw.Nodes() {
		n.App = app
	}
	nw.Finalize()
	nw.Run(0)
	return collect(nw, app.depth, app.parent)
}

func collect(nw *nsim.Network, depth map[nsim.NodeID]int, parent map[nsim.NodeID]nsim.NodeID) SPTResult {
	res := SPTResult{
		Depth:    make(map[nsim.NodeID]int),
		Parent:   parent,
		Messages: nw.TotalSent,
		Bytes:    nw.TotalBytes,
	}
	for _, n := range nw.Nodes() {
		if d, ok := depth[n.ID]; ok {
			res.Depth[n.ID] = d
		} else {
			res.Depth[n.ID] = -1
		}
	}
	return res
}
