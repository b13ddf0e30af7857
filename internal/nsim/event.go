package nsim

// Event queue: an index-based min-heap over value-typed events. Timer
// and delivery events carry their payload inline instead of capturing
// it in a closure, so scheduling allocates nothing beyond amortized
// slice growth, and there is no per-event box or container/heap
// interface traffic.
//
// Determinism rests only on the pop order — (at, seq) lexicographic.

// typed event kinds.
const (
	evFunc     uint8 = iota // external callback (ScheduleAt)
	evTimer                 // Handler.Timer on node `node`
	evDelivery              // Handler.Receive on node `node`
)

// simEvent is one scheduled event, stored by value in the heap. The
// str/data fields are overloaded per kind: timer key + timer data for
// evTimer, message kind + payload for evDelivery.
type simEvent struct {
	at   Time
	seq  int64
	kind uint8
	node NodeID      // timer owner or delivery destination
	src  NodeID      // delivery source
	size int         // delivery accounted bytes
	str  string      // timer key or message kind
	data interface{} // timer data or message payload
	fn   func()      // evFunc callback
}

// typedQueue is a binary min-heap of simEvent ordered by (at, seq),
// with manual sift routines (no container/heap, no boxing).
type typedQueue []simEvent

func (q typedQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *typedQueue) push(ev simEvent) {
	*q = append(*q, ev)
	q.siftUp(len(*q) - 1)
}

func (q *typedQueue) pop() simEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = simEvent{} // release payload references for GC
	*q = h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top
}

func (q typedQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (q typedQueue) siftDown(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			return
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}
