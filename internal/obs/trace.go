package obs

import (
	"bufio"
	"io"
	"strconv"
)

// EventKind classifies a trace event. The set mirrors the lifecycle of
// a tuple in the deductive runtime: radio transmission attempts
// (send/recv/drop) and derivation-state transitions at finalize time
// (derive/delete/settle).
type EventKind uint8

const (
	// EvSend is one radio transmission attempt (retries each count).
	EvSend EventKind = iota
	// EvRecv is a successful delivery to a live node.
	EvRecv
	// EvDrop is a transmission lost to the loss model.
	EvDrop
	// EvDerive is a derived tuple becoming live at a node.
	EvDerive
	// EvDelete is a derived tuple losing its last derivation.
	EvDelete
	// EvSettle is a join candidate applied at its finalize deadline.
	EvSettle
	// EvCrash is a node taken down by fault injection.
	EvCrash
	// EvRecover is a crashed node brought back up by fault injection.
	EvRecover
	// EvLinkDown is a link (or partition cut) starting to block frames.
	EvLinkDown
	// EvLinkUp is a blocked link (or partition) healing.
	EvLinkUp
	// EvDup is a delivery duplicated by the fault model.
	EvDup
	// EvReorder is a delivery delayed past its natural slot by the fault
	// model (reordering it behind later traffic).
	EvReorder

	numEventKinds = iota
)

var kindNames = [numEventKinds]string{
	"send", "recv", "drop", "derive", "delete", "settle",
	"crash", "recover", "linkdown", "linkup", "dup", "reorder",
}

// String returns the lowercase wire name of the kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind maps a wire name ("send", "recv", ...) back to its kind.
func ParseKind(s string) (EventKind, bool) {
	for i, name := range kindNames {
		if name == s {
			return EventKind(i), true
		}
	}
	return 0, false
}

// Event is one trace record. Value-typed and pointer-free so the ring
// buffer is a single flat allocation and Record never allocates.
type Event struct {
	At   int64     // virtual time (ticks)
	Node int32     // node where the event happened (dst for recv)
	Peer int32     // other party (dst for send, src for recv); -1 if none
	Kind EventKind // what happened
	Pred string    // predicate key or wire message kind
	Size int32     // payload bytes for radio events, else 0
}

// Trace is a fixed-capacity ring buffer of events. When full, the
// oldest events are overwritten; Total keeps counting so the number of
// evicted events is known. The nil trace is a valid disabled trace:
// Record on nil is a single branch.
type Trace struct {
	ring[Event]
	totals [numEventKinds]int64 // lifetime per-kind counts, eviction-proof
}

// NewTrace returns a ring buffer retaining up to capacity events
// (minimum 1).
func NewTrace(capacity int) *Trace {
	return &Trace{ring: newRing[Event](capacity)}
}

// Record appends an event, evicting the oldest when full. No-op on a
// nil receiver.
func (t *Trace) Record(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.push(e)
	if int(e.Kind) < numEventKinds {
		t.totals[e.Kind]++
	}
	t.mu.Unlock()
}

// Len returns the number of retained events (0 on nil).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return t.len()
}

// Total returns the number of events ever recorded, including evicted
// ones (0 on nil).
func (t *Trace) Total() int64 {
	if t == nil {
		return 0
	}
	return t.count()
}

// Dropped returns how many events were evicted by capacity pressure.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped()
}

// Events returns the retained events in recording order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	return t.matching(nil)
}

// TotalKinds returns lifetime per-kind event counts, including events
// later evicted by capacity pressure. Kinds that never occurred are
// omitted. This is the aggregate to compare against registry counters:
// it matches them at any ring capacity.
func (t *Trace) TotalKinds() map[EventKind]int64 {
	out := make(map[EventKind]int64)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, n := range t.totals {
		if n != 0 {
			out[EventKind(k)] = n
		}
	}
	return out
}

// Filter selects a subset of trace events for export. The zero value
// matches everything.
type Filter struct {
	Kinds []EventKind // empty = all kinds
	Node  int32       // match Node or Peer; negative = any (zero value: set to -1)
	Pred  string      // exact predicate / message-kind match; "" = any
	From  int64       // inclusive lower bound on At; 0 = no bound
	To    int64       // inclusive upper bound on At; 0 = no bound
}

// AnyNode is the Filter.Node wildcard.
const AnyNode = int32(-1)

// Match reports whether e passes the filter. A zero Node matches only
// node 0; use AnyNode for no node constraint.
func (f Filter) Match(e Event) bool {
	if len(f.Kinds) > 0 {
		ok := false
		for _, k := range f.Kinds {
			if e.Kind == k {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if f.Node >= 0 && e.Node != f.Node && e.Peer != f.Node {
		return false
	}
	if f.Pred != "" && e.Pred != f.Pred {
		return false
	}
	if f.From != 0 && e.At < f.From {
		return false
	}
	if f.To != 0 && e.At > f.To {
		return false
	}
	return true
}

// appendEventJSON appends e's flat JSON object plus a newline to line.
func appendEventJSON(line []byte, e Event) []byte {
	line = append(line, `{"at":`...)
	line = strconv.AppendInt(line, e.At, 10)
	line = append(line, `,"kind":"`...)
	line = append(line, e.Kind.String()...)
	line = append(line, `","node":`...)
	line = strconv.AppendInt(line, int64(e.Node), 10)
	line = append(line, `,"peer":`...)
	line = strconv.AppendInt(line, int64(e.Peer), 10)
	line = append(line, `,"pred":`...)
	line = strconv.AppendQuote(line, e.Pred)
	line = append(line, `,"size":`...)
	line = strconv.AppendInt(line, int64(e.Size), 10)
	return append(line, '}', '\n')
}

// WriteJSONL writes the retained events passing f to w, one JSON
// object per line, in recording order. Returns the number of events
// written. The schema is flat and stable:
//
//	{"at":120,"kind":"send","node":4,"peer":7,"pred":"join","size":42}
//
// Lines are hand-built from value fields, keeping the export loop
// allocation-light; Pred — the only string — is quoted with full JSON
// escaping, though in practice predicate keys and wire kinds are
// identifier-shaped.
func (t *Trace) WriteJSONL(w io.Writer, f Filter) (int, error) {
	return t.WriteTailJSONL(w, f, 0)
}

// WriteTailJSONL writes the newest n retained events passing f, in
// recording order, using the same line schema as WriteJSONL. n <= 0
// means no limit. This is the admin endpoint's `/trace?n=` view: the
// tail of the ring, filtered first so the limit counts matching lines.
func (t *Trace) WriteTailJSONL(w io.Writer, f Filter, n int) (int, error) {
	var matched []Event
	if t != nil {
		matched = t.matching(f.Match)
	}
	if n > 0 && len(matched) > n {
		matched = matched[len(matched)-n:]
	}
	bw := bufio.NewWriter(w)
	written := 0
	var line []byte
	for _, e := range matched {
		line = appendEventJSON(line[:0], e)
		if _, err := bw.Write(line); err != nil {
			return written, err
		}
		written++
	}
	return written, bw.Flush()
}
