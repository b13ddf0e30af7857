package nsim

// Event queue: a binary min-heap of small pointer-free keys over a slab
// of events that stay in place. A key is 24 B — (at, seq) plus the
// event's slab slot — so the heap's backing array holds no pointers:
// the GC never scans it and a sift write never takes a write barrier.
// Sifts move a hole and write each key once. Events (48 B, payload
// inline, no per-event closure) are written once on push and copied
// out once on pop; freed slots are recycled through a free list
// threaded through the slab itself, so a steady-state loop allocates
// nothing.
//
// Determinism rests only on the pop order — (at, seq) lexicographic.

// typed event kinds.
const (
	evFunc     uint8 = iota // external callback (ScheduleAt)
	evTimer                 // Handler.Timer on node `node`
	evDelivery              // Handler.Receive on node `node`
)

// simEvent is one scheduled event, stored in the queue's slab; its time
// and sequence number live only in its key. The str/data fields are
// overloaded per kind: timer key + timer data for evTimer, message kind
// + payload for evDelivery, and the callback (a func()) in data for
// evFunc. A free slot keeps the next free slot + 1 in node (0 ends the
// list).
type simEvent struct {
	kind uint8
	node int32       // timer owner or delivery destination
	src  int32       // delivery source
	size int32       // delivery accounted bytes
	str  string      // timer key or message kind
	data interface{} // timer data, message payload or evFunc callback
}

// qkey orders one slab slot in the heap.
type qkey struct {
	at   Time
	seq  int64
	slot int32
}

func (a qkey) less(b qkey) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventQueue is the heap of keys plus the slab they index.
type eventQueue struct {
	keys []qkey
	slab []simEvent
	free int32 // first free slab slot + 1; 0 when none is free
}

func (q *eventQueue) push(at Time, seq int64, ev simEvent) {
	var slot int32
	if q.free > 0 {
		slot = q.free - 1
		q.free = q.slab[slot].node
		q.slab[slot] = ev
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, ev)
	}
	k := qkey{at: at, seq: seq, slot: slot}
	q.keys = append(q.keys, k)
	h := q.keys
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
}

// pop removes the earliest event and returns it with its time. The
// event is copied out and its slot freed before the caller dispatches
// it: handlers schedule events, and a push may grow the slab.
func (q *eventQueue) pop() (Time, simEvent) {
	h := q.keys
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.keys = h
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].less(h[c]) {
				c = r
			}
			if !h[c].less(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	ev := q.slab[top.slot]
	q.slab[top.slot] = simEvent{node: q.free} // drops payload references for the GC
	q.free = top.slot + 1
	return top.at, ev
}
