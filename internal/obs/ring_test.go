package obs

import (
	"bytes"
	"testing"
)

// Every Trace and SpanRing method is safe on a nil receiver and
// reports an empty, disabled buffer.
func TestRingWrappersNilSafe(t *testing.T) {
	var tr *Trace
	var sr *SpanRing
	var buf bytes.Buffer
	for _, c := range []struct {
		name string
		ok   func() bool
	}{
		{"Trace.Record", func() bool { tr.Record(Event{Kind: EvSend}); return true }},
		{"Trace.Len", func() bool { return tr.Len() == 0 }},
		{"Trace.Total", func() bool { return tr.Total() == 0 }},
		{"Trace.Dropped", func() bool { return tr.Dropped() == 0 }},
		{"Trace.Events", func() bool { return tr.Events() == nil }},
		{"Trace.TotalKinds", func() bool { return len(tr.TotalKinds()) == 0 }},
		{"Trace.WriteJSONL", func() bool {
			n, err := tr.WriteJSONL(&buf, Filter{Node: AnyNode})
			return n == 0 && err == nil && buf.Len() == 0
		}},
		{"Trace.WriteTailJSONL", func() bool {
			n, err := tr.WriteTailJSONL(&buf, Filter{Node: AnyNode}, 5)
			return n == 0 && err == nil && buf.Len() == 0
		}},
		{"SpanRing.Record", func() bool { sr.Record(Span{Trace: 1}); return true }},
		{"SpanRing.Len", func() bool { return sr.Len() == 0 }},
		{"SpanRing.Total", func() bool { return sr.Total() == 0 }},
		{"SpanRing.Spans", func() bool { return sr.Spans() == nil }},
		{"SpanRing.ByTrace", func() bool { return sr.ByTrace(1) == nil }},
	} {
		if !c.ok() {
			t.Errorf("%s on a nil receiver did not report an empty buffer", c.name)
		}
	}
}
