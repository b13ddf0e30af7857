package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestTraceRingWrap(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{At: int64(i), Kind: EvSend})
	}
	if tr.Len() != 4 || tr.Total() != 10 || tr.Dropped() != 6 {
		t.Fatalf("len=%d total=%d dropped=%d", tr.Len(), tr.Total(), tr.Dropped())
	}
	evs := tr.Events()
	for i, e := range evs {
		if e.At != int64(6+i) {
			t.Fatalf("event %d has At=%d, want %d (oldest-first order)", i, e.At, 6+i)
		}
	}
}

func TestKindNames(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		back, ok := ParseKind(k.String())
		if !ok || back != k {
			t.Fatalf("round trip failed for kind %d (%q)", k, k.String())
		}
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Fatal("ParseKind accepted bogus name")
	}
}

func TestFilterMatch(t *testing.T) {
	e := Event{At: 50, Node: 3, Peer: 7, Kind: EvRecv, Pred: "join"}
	cases := []struct {
		f    Filter
		want bool
	}{
		{Filter{Node: AnyNode}, true},
		{Filter{Kinds: []EventKind{EvRecv}, Node: AnyNode}, true},
		{Filter{Kinds: []EventKind{EvSend}, Node: AnyNode}, false},
		{Filter{Node: 3}, true},
		{Filter{Node: 7}, true}, // matches Peer too
		{Filter{Node: 4}, false},
		{Filter{Node: AnyNode, Pred: "join"}, true},
		{Filter{Node: AnyNode, Pred: "store"}, false},
		{Filter{Node: AnyNode, From: 51}, false},
		{Filter{Node: AnyNode, From: 50, To: 50}, true},
		{Filter{Node: AnyNode, To: 49}, false},
	}
	for i, c := range cases {
		if got := c.f.Match(e); got != c.want {
			t.Fatalf("case %d: Match = %v, want %v", i, got, c.want)
		}
	}
}

func TestTraceCountKinds(t *testing.T) {
	tr := NewTrace(16)
	tr.Record(Event{Kind: EvSend})
	tr.Record(Event{Kind: EvSend})
	tr.Record(Event{Kind: EvDrop})
	agg := tr.TotalKinds()
	if agg[EvSend] != 2 || agg[EvDrop] != 1 || agg[EvRecv] != 0 {
		t.Fatalf("aggregate = %v", agg)
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewTrace(16)
	tr.Record(Event{At: 10, Node: 1, Peer: 2, Kind: EvSend, Pred: "store", Size: 24})
	tr.Record(Event{At: 12, Node: 2, Peer: 1, Kind: EvRecv, Pred: "store", Size: 24})
	tr.Record(Event{At: 20, Node: 5, Peer: -1, Kind: EvDerive, Pred: "out/2"})

	var buf bytes.Buffer
	n, err := tr.WriteJSONL(&buf, Filter{Node: AnyNode})
	if err != nil || n != 3 {
		t.Fatalf("WriteJSONL = (%d, %v), want (3, nil)", n, err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	var rec struct {
		At   int64  `json:"at"`
		Kind string `json:"kind"`
		Node int32  `json:"node"`
		Peer int32  `json:"peer"`
		Pred string `json:"pred"`
		Size int32  `json:"size"`
	}
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v", err)
	}
	if rec.At != 10 || rec.Kind != "send" || rec.Node != 1 || rec.Peer != 2 || rec.Pred != "store" || rec.Size != 24 {
		t.Fatalf("decoded record = %+v", rec)
	}

	buf.Reset()
	n, err = tr.WriteJSONL(&buf, Filter{Node: AnyNode, Kinds: []EventKind{EvDerive}})
	if err != nil || n != 1 {
		t.Fatalf("filtered WriteJSONL = (%d, %v), want (1, nil)", n, err)
	}
}

// TotalKinds must survive ring eviction.
func TestTraceTotalKindsSurvivesWrap(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 9; i++ {
		tr.Record(Event{Kind: EvSend})
	}
	tr.Record(Event{Kind: EvDrop})
	total := tr.TotalKinds()
	if total[EvSend] != 9 || total[EvDrop] != 1 {
		t.Fatalf("TotalKinds = %v, want 9 sends and 1 drop", total)
	}
	if _, present := total[EvRecv]; present {
		t.Fatal("TotalKinds should omit kinds that never occurred")
	}
	if tr.Len() != 4 || tr.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d, want the 4-event window after 6 evictions", tr.Len(), tr.Dropped())
	}
}

// An empty Kinds slice and an explicitly exhaustive one must agree.
func TestFilterEmptyKindsEqualsAllKinds(t *testing.T) {
	all := make([]EventKind, 0, numEventKinds)
	for k := EventKind(0); k < numEventKinds; k++ {
		all = append(all, k)
	}
	for k := EventKind(0); k < numEventKinds; k++ {
		e := Event{Kind: k, Node: 2, Peer: -1}
		empty := Filter{Node: AnyNode}.Match(e)
		explicit := Filter{Node: AnyNode, Kinds: all}.Match(e)
		if empty != explicit {
			t.Fatalf("kind %v: empty-kinds match %v, all-kinds match %v", k, empty, explicit)
		}
		if !empty {
			t.Fatalf("kind %v should match an unconstrained filter", k)
		}
	}
}

// The zero Node is a real constraint (node 0), not a wildcard, and it
// matches on either endpoint.
func TestFilterNodeZero(t *testing.T) {
	f := Filter{Node: 0}
	if !f.Match(Event{Node: 0, Peer: 4}) {
		t.Fatal("Node 0 filter should match events at node 0")
	}
	if !f.Match(Event{Node: 4, Peer: 0}) {
		t.Fatal("Node 0 filter should match events whose peer is node 0")
	}
	if f.Match(Event{Node: 4, Peer: 5}) {
		t.Fatal("Node 0 filter matched an unrelated event")
	}
}

// Exporting a wrapped ring emits exactly the retained window,
// oldest-first.
func TestWriteJSONLAfterRingWrap(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 8; i++ {
		tr.Record(Event{At: int64(i), Kind: EvSend, Peer: -1})
	}
	var buf bytes.Buffer
	n, err := tr.WriteJSONL(&buf, Filter{Node: AnyNode})
	if err != nil || n != 3 {
		t.Fatalf("WriteJSONL = (%d, %v), want (3, nil)", n, err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want the 3 retained events", len(lines))
	}
	for i, line := range lines {
		var rec struct {
			At int64 `json:"at"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if rec.At != int64(5+i) {
			t.Fatalf("line %d has at=%d, want %d (oldest retained first)", i, rec.At, 5+i)
		}
	}
}

// Pred strings with JSON-hostile characters must still export as valid
// JSON (the writer quotes with strconv.AppendQuote).
func TestWriteJSONLEscaping(t *testing.T) {
	hostile := `he said "hi"\` + "\n\ttab"
	tr := NewTrace(4)
	tr.Record(Event{At: 1, Kind: EvDerive, Peer: -1, Pred: hostile})
	var buf bytes.Buffer
	if n, err := tr.WriteJSONL(&buf, Filter{Node: AnyNode}); err != nil || n != 1 {
		t.Fatalf("WriteJSONL = (%d, %v)", n, err)
	}
	var rec struct {
		Pred string `json:"pred"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
		t.Fatalf("hostile pred produced invalid JSON: %v\n%s", err, buf.String())
	}
	if rec.Pred != hostile {
		t.Fatalf("pred round trip: %q != %q", rec.Pred, hostile)
	}
}

func TestWriteTailJSONL(t *testing.T) {
	tr := NewTrace(16)
	for i := int64(1); i <= 6; i++ {
		tr.Record(Event{At: i, Kind: EvSend, Node: 1, Peer: 2, Pred: "p"})
	}
	tr.Record(Event{At: 7, Kind: EvRecv, Node: 2, Peer: 1, Pred: "p"})

	var buf bytes.Buffer
	n, err := tr.WriteTailJSONL(&buf, Filter{Kinds: []EventKind{EvSend}, Node: AnyNode}, 2)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	// The filter runs before the limit: the tail holds the two newest
	// sends (at 5 and 6), not the newest events overall.
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("lines = %q", buf.String())
	}
	var rec struct {
		At   int64  `json:"at"`
		Kind string `json:"kind"`
	}
	for i, want := range []int64{5, 6} {
		if err := json.Unmarshal(lines[i], &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.At != want || rec.Kind != "send" {
			t.Fatalf("line %d = %+v, want at=%d kind=send", i, rec, want)
		}
	}

	// n <= 0 means no limit.
	buf.Reset()
	if n, _ := tr.WriteTailJSONL(&buf, Filter{Node: AnyNode}, 0); n != 7 {
		t.Fatalf("unlimited tail wrote %d lines, want 7", n)
	}
}
